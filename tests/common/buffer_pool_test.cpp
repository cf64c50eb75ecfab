#include "common/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace fmx {
namespace {

TEST(BufferPool, FirstAcquireIsFresh) {
  BufferPool pool;
  bool fresh = false;
  Bytes b = pool.acquire(100, &fresh);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_GE(b.capacity(), 128u);  // rounded up to the 2^7 class
  EXPECT_EQ(pool.stats().fresh_allocs, 1u);
  EXPECT_EQ(pool.stats().pool_hits, 0u);
  EXPECT_EQ(pool.stats().outstanding, 1u);
}

TEST(BufferPool, ReleaseThenAcquireHitsPool) {
  BufferPool pool;
  Bytes b = pool.acquire(100);
  const std::byte* data = b.data();
  pool.release(std::move(b));
  EXPECT_EQ(pool.stats().free_buffers, 1u);

  bool fresh = true;
  Bytes again = pool.acquire(90, &fresh);  // same 128-B class
  EXPECT_FALSE(fresh);
  EXPECT_EQ(again.data(), data);  // literally the same storage
  EXPECT_EQ(again.size(), 90u);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(pool.stats().free_buffers, 0u);
}

TEST(BufferPool, DistinctClassesDoNotMix) {
  BufferPool pool;
  pool.release(pool.acquire(64));   // 2^6 class
  bool fresh = false;
  Bytes big = pool.acquire(4096, &fresh);  // 2^12 class: must be fresh
  EXPECT_TRUE(fresh);
  EXPECT_GE(big.capacity(), 4096u);
}

TEST(BufferPool, AcquiredSizeIsExactAcrossReuse) {
  BufferPool pool;
  pool.release(pool.acquire(1024));
  for (std::size_t n : {513u, 1024u, 600u}) {
    Bytes b = pool.acquire(n);  // all land in the 1-KiB class
    EXPECT_EQ(b.size(), n);
    pool.release(std::move(b));
  }
}

TEST(BufferPool, OutstandingHighWaterTracksPeak) {
  BufferPool pool;
  std::vector<Bytes> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire(256));
  EXPECT_EQ(pool.stats().outstanding, 5u);
  EXPECT_EQ(pool.stats().outstanding_high, 5u);
  for (auto& b : held) pool.release(std::move(b));
  held.clear();
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().outstanding_high, 5u);  // peak sticks
  (void)pool.acquire(256);
  EXPECT_EQ(pool.stats().outstanding_high, 5u);
}

TEST(BufferPool, RetentionCapDropsBurstExcess) {
  // Retention is byte-budgeted per class (kDefaultRetainBytesPerClass,
  // floored at kRetainPerClass buffers): a small-class burst parks entirely,
  // while a large-class burst is trimmed so it can't pin memory forever.
  BufferPool pool;
  std::vector<Bytes> held;
  for (int i = 0; i < 80; ++i) held.push_back(pool.acquire(512));
  for (auto& b : held) pool.release(std::move(b));
  // 80 x 512 B = 40 KiB, far under the 4 MiB class budget: all parked.
  EXPECT_EQ(pool.stats().free_buffers, 80u);

  BufferPool big;
  std::vector<Bytes> burst;
  // 64 KiB class: 4 MiB / 64 KiB = 64 buffers is exactly the floor, so
  // releasing 72 must drop the 8 beyond the cap back to the allocator.
  for (int i = 0; i < 72; ++i) burst.push_back(big.acquire(64u << 10));
  for (auto& b : burst) big.release(std::move(b));
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
  Bytes huge = pool.acquire(2u << 20);  // 2 MiB: above the top class
  EXPECT_EQ(huge.size(), 2u << 20);
  pool.release(std::move(huge));
  bool fresh = false;
  Bytes again = pool.acquire(2u << 20, &fresh);
  EXPECT_TRUE(fresh);  // not recycled: out-of-class buffers are dropped
}

TEST(BufferPool, EmptyBuffersIgnoredOnRelease) {
  BufferPool pool;
  pool.release(Bytes{});  // capacity 0: no-op, no underflow
  EXPECT_EQ(pool.stats().free_buffers, 0u);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(BufferPool, ZeroSizeAcquireWorks) {
  BufferPool pool;
  Bytes b = pool.acquire(0);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_GE(b.capacity(), 64u);  // still a pooled 64-B-class buffer
  pool.release(std::move(b));
  bool fresh = true;
  (void)pool.acquire(1, &fresh);
  EXPECT_FALSE(fresh);
}

}  // namespace
}  // namespace fmx
