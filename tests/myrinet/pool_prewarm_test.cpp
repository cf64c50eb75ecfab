// ParallelCluster pre-warms its buffer pools only where a warm-up wave
// cannot: on a sharded cluster the live-block high water depends on
// cross-shard thread timing, so every shard parks the structural worst
// case at construction (up to the pool's retention limit — nothing is
// allocated only to be freed again). A 1-shard cluster reaches its high
// water in the warm-up wave and allocates nothing up front.
#include <gtest/gtest.h>

#include "myrinet/parallel_cluster.hpp"
#include "myrinet/topo.hpp"

namespace fmx::net {
namespace {

TEST(ParallelClusterPool, OneShardSkipsPrewarm) {
  ParallelCluster cl(fat_tree_cluster(1024, 0, 1), 1);
  const BufferPool::Stats& s = cl.shard_fabric(0).pool().stats();
  EXPECT_EQ(s.fresh_allocs, 0u);
  EXPECT_EQ(s.free_buffers, 0u);
}

TEST(ParallelClusterPool, ShardedPrewarmKeepsEveryBlock) {
  ParallelCluster cl(fat_tree_cluster(1024, 0, 1), 8);
  ASSERT_EQ(cl.n_shards(), 8);
  for (int s = 0; s < cl.n_shards(); ++s) {
    const BufferPool::Stats& st = cl.shard_fabric(s).pool().stats();
    EXPECT_GT(st.free_buffers, 0u) << "shard " << s;
    EXPECT_EQ(st.fresh_allocs, st.free_buffers) << "shard " << s;
  }
}

}  // namespace
}  // namespace fmx::net
