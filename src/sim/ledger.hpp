// Cost accounting. Every software layer charges its work to a category so
// benchmarks can print breakdowns (Figure 2, Figure 3a) and tests can assert
// structural properties like "this path performed zero payload copies".
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

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
    ++copies_;
    copied_bytes_ += bytes;
  }

  /// A fresh heap buffer had to be allocated on the data path (buffer-pool
  /// miss). Steady-state streaming should record zero of these.
  void note_alloc() noexcept { ++allocs_; }

  Ps total() const noexcept { return total_; }
  Ps of(Cost c) const noexcept {
    return per_cat_[static_cast<std::size_t>(c)];
  }
  std::uint64_t copies() const noexcept { return copies_; }
  std::uint64_t copied_bytes() const noexcept { return copied_bytes_; }
  std::uint64_t allocs() const noexcept { return allocs_; }

  void reset() noexcept { *this = CostLedger{}; }

  /// Delta helper for bracketing a measurement region.
  CostLedger diff(const CostLedger& earlier) const noexcept {
    CostLedger d;
    for (std::size_t i = 0; i < per_cat_.size(); ++i) {
      d.per_cat_[i] = per_cat_[i] - earlier.per_cat_[i];
    }
    d.total_ = total_ - earlier.total_;
    d.copies_ = copies_ - earlier.copies_;
    d.copied_bytes_ = copied_bytes_ - earlier.copied_bytes_;
    d.allocs_ = allocs_ - earlier.allocs_;
    return d;
  }

 private:
  std::array<Ps, static_cast<std::size_t>(Cost::kCount)> per_cat_{};
  Ps total_ = 0;
  std::uint64_t copies_ = 0;
  std::uint64_t copied_bytes_ = 0;
  std::uint64_t allocs_ = 0;
};

}  // namespace fmx::sim
