// Bounded single-producer/single-consumer ring of fixed-size slots: the
// fast path of ParallelEngine's cross-shard mailboxes (sim/parallel.hpp).
//
// The design deliberately avoids any ordering burden: cross-shard events
// carry explicit tie-break keys (Engine::schedule_cross), so the consumer
// only needs "everything the producer published before its last horizon
// publish is visible to the next drain" — plain acquire/release on two
// cache-line-separated indices. Slots are preallocated at construction;
// push/pop never allocate.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

namespace fmx::sim {

class SpscSlotRing {
 public:
  /// `slots` is rounded up to a power of two; each slot holds `slot_bytes`.
  SpscSlotRing(std::size_t slots, std::size_t slot_bytes)
      : slot_bytes_(slot_bytes) {
    std::size_t cap = 1;
    while (cap < slots) cap <<= 1;
    mask_ = cap - 1;
    buf_ = std::make_unique<std::byte[]>(cap * slot_bytes_);
  }
  SpscSlotRing(const SpscSlotRing&) = delete;
  SpscSlotRing& operator=(const SpscSlotRing&) = delete;

  std::size_t slot_bytes() const noexcept { return slot_bytes_; }
  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer: slot to fill, or nullptr when the ring is full. The write is
  /// published by commit_push(); at most one slot may be open at a time.
  std::byte* try_push_slot() noexcept {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    const std::size_t h = head_.load(std::memory_order_acquire);
    if (t - h > mask_) return nullptr;
    return buf_.get() + (t & mask_) * slot_bytes_;
  }
  void commit_push() noexcept {
    tail_.store(tail_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Consumer: oldest published slot, or nullptr when empty.
  const std::byte* front() const noexcept {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    if (h == t) return nullptr;
    return buf_.get() + (h & mask_) * slot_bytes_;
  }
  void pop() noexcept {
    head_.store(head_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Emptiness probe. Exact when both endpoints are quiescent (the
  /// termination sweep runs it from a foreign thread, but only while every
  /// worker is parked under the idle mutex, which orders their last
  /// push/pop before the probe); conservative — may report non-empty for
  /// an instant after a pop — anywhere else.
  bool empty() const noexcept { return front() == nullptr; }

 private:
  std::size_t mask_;
  std::size_t slot_bytes_;
  std::unique_ptr<std::byte[]> buf_;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer index
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer index
};

}  // namespace fmx::sim
