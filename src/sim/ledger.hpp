// Cost accounting. Every software layer charges its work to a category so
// benchmarks can print breakdowns (Figure 2, Figure 3a) and tests can assert
// structural properties like "this path performed zero payload copies".
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/time.hpp"
#include "trace/metrics.hpp"

namespace fmx::sim {

enum class Cost : std::uint8_t {
  kCall,       // fixed API call overhead
  kCopy,       // memory-to-memory payload copies
  kHeader,     // header build/parse
  kPio,        // programmed I/O across the I/O bus
  kDma,        // DMA engine setup / completion handling
  kDispatch,   // handler lookup + invocation
  kMatch,      // receive matching (MPI tag/src)
  kBufferMgmt, // buffer pool alloc/free/track
  kOrder,      // sequence numbers / reordering
  kFlowCtl,    // credit accounting
  kFaultTol,   // acks, timers, retransmission state
  kWire,       // link serialization
  kOther,
  kCount,
};

constexpr std::string_view cost_name(Cost c) noexcept {
  switch (c) {
    case Cost::kCall: return "call";
    case Cost::kCopy: return "copy";
    case Cost::kHeader: return "header";
    case Cost::kPio: return "pio";
    case Cost::kDma: return "dma";
    case Cost::kDispatch: return "dispatch";
    case Cost::kMatch: return "match";
    case Cost::kBufferMgmt: return "buffer_mgmt";
    case Cost::kOrder: return "in_order";
    case Cost::kFlowCtl: return "flow_ctl";
    case Cost::kFaultTol: return "fault_tol";
    case Cost::kWire: return "wire";
    case Cost::kOther: return "other";
    case Cost::kCount: break;
  }
  return "?";
}

/// Accumulates simulated time per category plus copy statistics.
class CostLedger {
 public:
  void add(Cost c, Ps t) noexcept {
    per_cat_[static_cast<std::size_t>(c)] += t;
    total_ += t;
  }

  void note_copy(std::uint64_t bytes) noexcept {
    copies_.add();
    copied_bytes_.add(bytes);
  }

  /// A fresh heap buffer had to be allocated on the data path (buffer-pool
  /// miss). Steady-state streaming should record zero of these.
  void note_alloc(std::uint64_t bytes) noexcept {
    allocs_.add();
    alloc_bytes_.add(bytes);
  }

  Ps total() const noexcept { return total_; }
  Ps of(Cost c) const noexcept {
    return per_cat_[static_cast<std::size_t>(c)];
  }
  std::uint64_t copies() const noexcept { return copies_.value; }
  std::uint64_t copied_bytes() const noexcept { return copied_bytes_.value; }
  std::uint64_t allocs() const noexcept { return allocs_.value; }

  /// Live cells for trace::MetricsRegistry::expose() — lets the registry
  /// read this ledger's counters by name without copying them.
  const std::uint64_t* copies_cell() const noexcept { return copies_.cell(); }
  const std::uint64_t* copied_bytes_cell() const noexcept {
    return copied_bytes_.cell();
  }
  const std::uint64_t* allocs_cell() const noexcept { return allocs_.cell(); }
  const std::uint64_t* alloc_bytes_cell() const noexcept {
    return alloc_bytes_.cell();
  }

  void reset() noexcept { *this = CostLedger{}; }

  /// Delta helper for bracketing a measurement region.
  CostLedger diff(const CostLedger& earlier) const noexcept {
    CostLedger d;
    for (std::size_t i = 0; i < per_cat_.size(); ++i) {
      d.per_cat_[i] = per_cat_[i] - earlier.per_cat_[i];
    }
    d.total_ = total_ - earlier.total_;
    d.copies_.value = copies_.value - earlier.copies_.value;
    d.copied_bytes_.value = copied_bytes_.value - earlier.copied_bytes_.value;
    d.allocs_.value = allocs_.value - earlier.allocs_.value;
    d.alloc_bytes_.value = alloc_bytes_.value - earlier.alloc_bytes_.value;
    return d;
  }

 private:
  std::array<Ps, static_cast<std::size_t>(Cost::kCount)> per_cat_{};
  Ps total_ = 0;
  trace::Counter copies_;
  trace::Counter copied_bytes_;
  trace::Counter allocs_;
  trace::Counter alloc_bytes_;
};

}  // namespace fmx::sim
