#include "common/buffer_pool.hpp"

#include <algorithm>
#include <bit>

namespace fmx {

// Smallest class whose buffers are guaranteed to hold n bytes.
std::size_t BufferPool::class_for_request(std::size_t n) noexcept {
  if (n <= (std::size_t{1} << kMinClassLog2)) return 0;
  std::size_t log2 = std::bit_width(n - 1);  // ceil(log2(n))
  return log2 > kMaxClassLog2 ? kClasses : log2 - kMinClassLog2;
}

// Largest class c with 2^(c+kMin) <= cap: a buffer parked in class c can
// serve any request routed to class c by class_for_request.
std::size_t BufferPool::class_for_capacity(std::size_t cap) noexcept {
  std::size_t log2 = std::bit_width(cap) - 1;  // floor(log2(cap))
  if (log2 < kMinClassLog2) return kClasses;   // too small to bother pooling
  if (log2 > kMaxClassLog2) log2 = kMaxClassLog2;
  return log2 - kMinClassLog2;
}

BufferPool::~BufferPool() {
  for (auto& cls : free_blocks_) {
    for (detail::BlockHeader* h : cls) detail::free_block(h);
  }
}

BufferRef BufferPool::acquire_ref(std::size_t n, bool* fresh) {
  return BufferRef::adopt(take_block(n, fresh));
}

detail::BlockHeader* BufferPool::take_block(std::size_t n, bool* fresh) {
  ++stats_.acquires;
  if (++stats_.outstanding > stats_.outstanding_high) {
    stats_.outstanding_high = stats_.outstanding;
  }
  std::size_t cls = class_for_request(n);
  detail::BlockHeader* h = nullptr;
  if (cls < kClasses && !free_blocks_[cls].empty()) {
    h = free_blocks_[cls].back();
    free_blocks_[cls].pop_back();
    --stats_.free_buffers;
    ++stats_.pool_hits;
    if (fresh != nullptr) *fresh = false;
  } else {
    // Round up to the class capacity so the block lands back in the same
    // class on return regardless of n (oversize requests keep exact size).
    std::size_t cap = cls < kClasses ? (std::size_t{1} << (cls + kMinClassLog2)) : n;
    h = detail::alloc_block(cap);
    ++stats_.fresh_allocs;
    if (fresh != nullptr) *fresh = true;
  }
  h->refs = 1;
  h->size = static_cast<std::uint32_t>(n);
  h->crc_valid = false;
  h->pool = this;
  return h;
}

void BufferPool::prewarm(std::size_t n, std::size_t count) {
  const std::size_t cls = class_for_request(n);
  if (cls >= kClasses) return;
  auto& parked = free_blocks_[cls];
  const std::size_t target = std::min(count, retain_limit(cls));
  while (parked.size() < target) {
    parked.push_back(
        detail::alloc_block(std::size_t{1} << (cls + kMinClassLog2)));
    ++stats_.fresh_allocs;
    if (++stats_.free_buffers > stats_.free_high) {
      stats_.free_high = stats_.free_buffers;
    }
  }
}

void BufferPool::return_block(detail::BlockHeader* h) noexcept {
  ++stats_.releases;
  if (stats_.outstanding > 0) --stats_.outstanding;
  std::size_t cls = class_for_capacity(h->capacity);
  if (cls >= kClasses || free_blocks_[cls].size() >= retain_limit(cls)) {
    detail::free_block(h);
    return;
  }
  free_blocks_[cls].push_back(h);
  if (++stats_.free_buffers > stats_.free_high) {
    stats_.free_high = stats_.free_buffers;
  }
}

}  // namespace fmx
