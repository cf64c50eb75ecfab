#include "common/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace fmx {
namespace {

TEST(BufferPool, FirstAcquireIsFresh) {
  BufferPool pool;
  bool fresh = false;
  BufferRef b = pool.acquire_ref(100, &fresh);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(pool.stats().fresh_allocs, 1u);
  EXPECT_EQ(pool.stats().pool_hits, 0u);
  EXPECT_EQ(pool.stats().outstanding, 1u);
  b.reset();
  (void)pool.acquire_ref(128, &fresh);
  EXPECT_FALSE(fresh);  // the block was rounded up to the 2^7 class
}

TEST(BufferPool, ReleaseThenAcquireHitsPool) {
  BufferPool pool;
  BufferRef b = pool.acquire_ref(100);
  const std::byte* data = b.data();
  b.reset();
  EXPECT_EQ(pool.stats().free_buffers, 1u);

  bool fresh = true;
  BufferRef again = pool.acquire_ref(90, &fresh);  // same 128-B class
  EXPECT_FALSE(fresh);
  EXPECT_EQ(again.data(), data);  // literally the same storage
  EXPECT_EQ(again.size(), 90u);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(pool.stats().free_buffers, 0u);
}

TEST(BufferPool, DistinctClassesDoNotMix) {
  BufferPool pool;
  (void)pool.acquire_ref(64);  // 2^6 class; parked again at once
  bool fresh = false;
  BufferRef big = pool.acquire_ref(4096, &fresh);  // 2^12 class: fresh
  EXPECT_TRUE(fresh);
  EXPECT_EQ(big.size(), 4096u);
  EXPECT_EQ(pool.stats().free_buffers, 1u);  // the 64-B block stays parked
}

TEST(BufferPool, AcquiredSizeIsExactAcrossReuse) {
  BufferPool pool;
  (void)pool.acquire_ref(1024);
  for (std::size_t n : {513u, 1024u, 600u}) {
    BufferRef b = pool.acquire_ref(n);  // all land in the 1-KiB class
    EXPECT_EQ(b.size(), n);
  }
  EXPECT_EQ(pool.stats().fresh_allocs, 1u);
}

TEST(BufferPool, OutstandingHighWaterTracksPeak) {
  BufferPool pool;
  std::vector<BufferRef> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire_ref(256));
  EXPECT_EQ(pool.stats().outstanding, 5u);
  EXPECT_EQ(pool.stats().outstanding_high, 5u);
  held.clear();
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().outstanding_high, 5u);  // peak sticks
  (void)pool.acquire_ref(256);
  EXPECT_EQ(pool.stats().outstanding_high, 5u);
}

TEST(BufferPool, RetentionCapDropsBurstExcess) {
  // Retention is byte-budgeted per class (kDefaultRetainBytesPerClass,
  // floored at kRetainPerClass blocks): a small-class burst parks entirely,
  // while a large-class burst is trimmed so it can't pin memory forever.
  BufferPool pool;
  std::vector<BufferRef> held;
  for (int i = 0; i < 80; ++i) held.push_back(pool.acquire_ref(512));
  held.clear();
  // 80 x 512 B = 40 KiB, far under the 4 MiB class budget: all parked.
  EXPECT_EQ(pool.stats().free_buffers, 80u);

  BufferPool big;
  std::vector<BufferRef> burst;
  // 64 KiB class: 4 MiB / 64 KiB = 64 blocks is exactly the floor, so
  // returning 72 must drop the 8 beyond the cap back to the allocator.
  for (int i = 0; i < 72; ++i) burst.push_back(big.acquire_ref(64u << 10));
  burst.clear();
  EXPECT_EQ(big.stats().free_buffers, 64u);
}

TEST(BufferPool, PrewarmParksUpToRetentionLimit) {
  BufferPool pool;
  pool.prewarm(100, 500);  // 128 B class: 500 is under its 32,768 limit
  EXPECT_EQ(pool.stats().free_buffers, 500u);
  EXPECT_EQ(pool.stats().fresh_allocs, 500u);
  EXPECT_EQ(pool.stats().acquires, 0u);
  pool.prewarm(128, 200);  // already holds more: parks nothing
  EXPECT_EQ(pool.stats().free_buffers, 500u);

  // 64 KiB class: 4 MiB / 64 KiB = 64 parked at most.
  pool.prewarm(64u << 10, 100);
  EXPECT_EQ(pool.stats().free_buffers, 564u);

  bool fresh = true;
  BufferRef r = pool.acquire_ref(120, &fresh);
  EXPECT_FALSE(fresh);  // served from the pre-warmed blocks
  EXPECT_EQ(r.size(), 120u);
  EXPECT_EQ(pool.stats().fresh_allocs, 564u);
}

TEST(BufferPool, OversizeRequestsBypassRetention) {
  BufferPool pool;
  BufferRef huge = pool.acquire_ref(2u << 20);  // 2 MiB: above the top class
  EXPECT_EQ(huge.size(), 2u << 20);
  huge.reset();
  bool fresh = false;
  BufferRef again = pool.acquire_ref(2u << 20, &fresh);
  EXPECT_TRUE(fresh);  // not recycled: out-of-class blocks are freed
}

TEST(BufferPool, ZeroSizeAcquireWorks) {
  BufferPool pool;
  BufferRef b = pool.acquire_ref(0);
  EXPECT_EQ(b.size(), 0u);
  b.reset();
  EXPECT_EQ(pool.stats().free_buffers, 1u);
  bool fresh = true;
  (void)pool.acquire_ref(1, &fresh);
  EXPECT_FALSE(fresh);  // still a pooled 64-B-class block
}

}  // namespace
}  // namespace fmx
