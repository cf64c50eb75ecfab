// Host CPU cost model. Library code running "on" a host charges work to the
// host's ledger; the charges are paid (converted into simulated delay) at
// the next co_await host.sync(). Copies are performed for real and charged
// through the memcpy model, so both data integrity and copy counts are
// observable.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/buffer.hpp"
#include "common/copy_stats.hpp"
#include "myrinet/params.hpp"
#include "myrinet/reg_cache.hpp"
#include "sim/engine.hpp"
#include "sim/ledger.hpp"
#include "sim/task.hpp"

namespace fmx::net {

class Host {
 public:
  Host(sim::Engine& eng, int id, const HostParams& p)
      : eng_(eng), id_(id), p_(p), reg_cache_(p.reg) {}
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  int id() const noexcept { return id_; }
  sim::Engine& engine() noexcept { return eng_; }
  const HostParams& params() const noexcept { return p_; }

  /// Record `t` of CPU work in category `c`; paid at the next sync().
  void charge(sim::Cost c, sim::Ps t) {
    ledger_.add(c, t);
    pending_ += t;
  }

  void charge_cycles(sim::Cost c, double cycles) {
    charge(c, static_cast<sim::Ps>(cycles *
                                   (static_cast<double>(sim::kPsPerSec) /
                                    p_.cpu_hz)));
  }

  /// Record work in the ledger without adding CPU delay — used when the
  /// time is already being spent elsewhere (e.g. PIO occupies the bus and
  /// the host simultaneously; the bus occupancy provides the delay).
  void note(sim::Cost c, sim::Ps t) { ledger_.add(c, t); }

  sim::Ps memcpy_cost(std::size_t bytes) const {
    double per_byte = bytes > p_.memcpy_cache_threshold
                          ? p_.memcpy_ps_per_byte_uncached
                          : p_.memcpy_ps_per_byte;
    return p_.memcpy_setup +
           static_cast<sim::Ps>(per_byte * static_cast<double>(bytes));
  }

  /// Copy with cost: really copies, charges the memcpy model, counts.
  void copy(MutByteSpan dst, ByteSpan src, sim::Cost c = sim::Cost::kCopy) {
    assert(dst.size() >= src.size());
    std::memcpy(dst.data(), src.data(), src.size());
    count_endpoint_copy(src.size());
    charge_copy(src.size(), c);
  }

  /// Modeled copy without physical data movement: charges the memcpy model
  /// and bumps the ledger copy count exactly like copy(), but the simulator
  /// shares the underlying BufferRef instead of moving bytes. Keeps pinned
  /// copy counts and determinism digests identical while the data plane
  /// goes zero-copy.
  void charge_copy(std::size_t bytes, sim::Cost c = sim::Cost::kCopy) {
    charge(c, memcpy_cost(bytes));
    ledger_.note_copy(bytes);
  }

  /// Pay all accumulated charges as simulated delay. Returns the engine's
  /// delay awaiter, not a coroutine, so `co_await host.sync()` costs no
  /// frame; the charges are taken at the call, so await the result at once.
  auto sync() {
    sim::Ps due = pending_;
    pending_ = 0;
    return eng_.delay(due);
  }

  /// Charge and pay in one step (convenience for blocking-style code).
  sim::Task<void> compute(sim::Ps t, sim::Cost c = sim::Cost::kOther) {
    charge(c, t);
    co_await sync();
  }

  sim::Ps pending() const noexcept { return pending_; }
  const sim::CostLedger& ledger() const noexcept { return ledger_; }
  sim::CostLedger& ledger() noexcept { return ledger_; }

  /// Pin-down cache for the RDMA rendezvous path. Callers charge the
  /// returned Acquire::cost to this host (Cost::kBufferMgmt).
  RegCache& reg_cache() noexcept { return reg_cache_; }
  const RegCache& reg_cache() const noexcept { return reg_cache_; }

  /// Translate a real buffer pointer into this host's simulated address
  /// space before handing it to the pin-down cache. The cache's cost model
  /// is page-granular, so raw heap pointers would leak the *process*
  /// allocator's placement — page offsets and accidental adjacency — into
  /// simulated pin costs, which must be a function of the simulation alone
  /// (they differ per run, per thread count, per libc). Each distinct
  /// buffer gets a page-aligned simulated range in first-touch order
  /// (simulated event order, hence deterministic), separated by a guard
  /// page so unrelated buffers never abut or coalesce by accident.
  /// Re-presenting the same base pointer maps to the same range, so
  /// registration-cache hits on buffer reuse are preserved; a larger span
  /// at the same base re-registers at a fresh range (the old region stays
  /// cached until evicted, like a real pin cache). Interior pointers are
  /// treated as distinct buffers.
  const void* sim_addr(const void* p, std::size_t n) {
    const std::uintptr_t page = p_.reg.page_bytes;
    auto it = va_map_.find(p);
    if (it == va_map_.end() || n > it->second.reserved) {
      VaRange r;
      r.va = next_va_;
      r.reserved = ((n > 0 ? n + page - 1 : page) / page) * page;
      next_va_ += r.reserved + page;  // +1 guard page
      it = va_map_.insert_or_assign(p, r).first;
    }
    return reinterpret_cast<const void*>(it->second.va);
  }

 private:
  struct VaRange {
    std::uintptr_t va = 0;
    std::size_t reserved = 0;  ///< page-rounded span backing this mapping
  };

  sim::Engine& eng_;
  int id_;
  HostParams p_;
  sim::CostLedger ledger_;
  sim::Ps pending_ = 0;
  RegCache reg_cache_;
  std::unordered_map<const void*, VaRange> va_map_;
  std::uintptr_t next_va_ = 1 << 16;  ///< skip low addresses (readability)
};

}  // namespace fmx::net
