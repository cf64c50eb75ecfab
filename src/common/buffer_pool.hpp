// Recycling pool for packet-sized, refcounted byte blocks. Every packet on
// the simulated data path (FM frame assembly, wire transit, NIC receive
// staging) lives in a BufferRef block; without pooling each one would cost
// a malloc/free pair even in steady state. The pool parks dead blocks in
// power-of-two capacity classes and hands them back on acquire_ref, so a
// steady stream reaches its high-water mark and then stops touching the
// allocator entirely.
//
// Blocks are returned with size() == n but are NOT zeroed: every producer
// on the data path overwrites the full payload before the block reaches
// the wire (FM's gather/stream copies fill byte 0..n-1, headers are
// memcpy'd over the first kHdr bytes). Callers that need cleared memory
// must clear it themselves.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/buffer_ref.hpp"

namespace fmx {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;      // blocks handed out
    std::uint64_t pool_hits = 0;     // served from a free list
    std::uint64_t fresh_allocs = 0;  // had to allocate a new block
    std::uint64_t releases = 0;      // blocks come home (refs hit zero)
    std::uint64_t outstanding = 0;   // acquired and not yet released
    std::uint64_t outstanding_high = 0;
    std::uint64_t free_buffers = 0;  // parked in free lists right now
    std::uint64_t free_high = 0;
  };

  /// `retain_bytes_per_class` is the byte budget each size class may park.
  /// Classes already at their limit drop the excess back to the allocator
  /// so a burst can't pin memory forever. The limit is a byte budget per
  /// class (with a small floor), not a flat count: packet-sized classes
  /// retain thousands of blocks — batched parallel quanta legitimately
  /// keep hundreds of packets alive at once, and a flat cap would put the
  /// allocator back on the steady-state path every burst. The 4 MiB
  /// default serves every preset, the thousand-host fat-tree included;
  /// only the fabric_scale bench raises it, to hold its much larger
  /// live-buffer high water.
  explicit BufferPool(
      std::size_t retain_bytes_per_class = kDefaultRetainBytesPerClass)
      : retain_bytes_per_class_(retain_bytes_per_class) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// A unique BufferRef with size() == n, backed by an intrusively-headed
  /// block recycled through the pool when the last reference drops. Reuses
  /// a parked block whose capacity covers n when one is available. If
  /// `fresh` is non-null it is set to whether the block had to be newly
  /// allocated (pool miss). The bytes are NOT initialized (no hidden
  /// zero-fill — producers overwrite the full view).
  BufferRef acquire_ref(std::size_t n, bool* fresh = nullptr);

  /// Park fresh blocks in the size class serving `n`-byte requests until it
  /// holds min(count, retention limit) of them — the pre-warm for runs
  /// whose live-block high water a warm-up wave cannot reach
  /// deterministically. Each new block counts as a fresh allocation.
  void prewarm(std::size_t n, std::size_t count);

  const Stats& stats() const noexcept { return stats_; }

 private:
  friend class BufferRef;

  /// Pop (or allocate) a block covering n; refs=1, size=n, pool=this.
  detail::BlockHeader* take_block(std::size_t n, bool* fresh);
  /// Dead block coming home (refs hit zero): parked, or freed when its
  /// class is at the retention limit.
  void return_block(detail::BlockHeader* h) noexcept;

  // Capacity classes 2^6 (64 B) .. 2^20 (1 MiB); anything larger is clamped
  // into the top class (its capacity still covers any request routed there).
  static constexpr std::size_t kMinClassLog2 = 6;
  static constexpr std::size_t kMaxClassLog2 = 20;
  static constexpr std::size_t kClasses = kMaxClassLog2 - kMinClassLog2 + 1;
  static constexpr std::size_t kRetainPerClass = 64;  // floor, any class
  static constexpr std::size_t kDefaultRetainBytesPerClass =
      std::size_t{4} << 20;

  static std::size_t class_for_request(std::size_t n) noexcept;
  static std::size_t class_for_capacity(std::size_t cap) noexcept;
  /// Max buffers parked in class `cls`: the byte budget divided by the
  /// class capacity, floored at kRetainPerClass.
  std::size_t retain_limit(std::size_t cls) const noexcept {
    const std::size_t by_bytes =
        retain_bytes_per_class_ >> (cls + kMinClassLog2);
    return by_bytes > kRetainPerClass ? by_bytes : kRetainPerClass;
  }

  std::size_t retain_bytes_per_class_ = kDefaultRetainBytesPerClass;
  std::array<std::vector<detail::BlockHeader*>, kClasses> free_blocks_;
  Stats stats_;
};

}  // namespace fmx
