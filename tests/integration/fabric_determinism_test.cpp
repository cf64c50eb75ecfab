// Fat-tree parallel determinism: the open-loop traffic engine replayed on
// a fat-tree ParallelCluster must produce bit-identical completion digests
// and quantiles at 1, 2 and 4 worker threads, for every traffic pattern.
// This is the datacenter-scale analogue of parallel_determinism_test's
// chain workloads: multipath ECMP, per-pair lookahead from true fat-tree
// distances, and cross-shard flow timestamps all have to agree exactly.
//
// Thread-count agreement alone cannot see a change that reorders the
// simulation the same way at every thread count (e.g. a different credit
// return order), so each pattern's digest and event count are also pinned.
// If a deliberate semantic change moves them, re-pin kPinned with the
// values this test prints on failure — in the same commit as the change,
// with the reason in the commit message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "myrinet/parallel_cluster.hpp"
#include "myrinet/topo.hpp"
#include "workload/traffic_engine.hpp"

namespace fmx {
namespace {

struct WaveOutcome {
  std::uint64_t digest = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  std::vector<double> p999;
};

WaveOutcome run_fat_tree(workload::TrafficPattern pattern, int threads,
                         int hosts = 32, int flows_per_host = 24) {
  auto params = net::fat_tree_cluster(hosts, /*radix=*/4, /*oversub=*/2);
  params.nic.host_ring_slots = 128;
  net::ParallelCluster cl(params, 4);
  workload::TrafficEngine te(cl);

  workload::TrafficConfig cfg;
  cfg.pattern = pattern;
  cfg.sizes = workload::SizeDistribution::log_uniform(32, 4096);
  cfg.flow_rate_per_host = 1e7;
  cfg.flows_per_host = flows_per_host;
  cfg.seed = 7;
  cfg.incast_fan_in = 8;
  const auto sched = workload::make_schedule(cfg, hosts);

  const auto wave = te.run_wave(sched, threads);
  WaveOutcome o;
  o.digest = wave.digest;
  o.completed = wave.completed;
  o.events = wave.events;
  for (const auto& lq : wave.layers) o.p999.push_back(lq.p999);
  EXPECT_EQ(wave.pending_roots, 0);
  EXPECT_EQ(o.completed, sched.total_flows);
  return o;
}

struct Pin {
  workload::TrafficPattern pattern;
  std::uint64_t digest;
  std::uint64_t events;
};
constexpr Pin kPinned[] = {
    {workload::TrafficPattern::kUniform, 0x9054bb2b5e458e9bull, 23095},
    {workload::TrafficPattern::kPermutation, 0x42559f2a9fc683a3ull, 27400},
    {workload::TrafficPattern::kIncast, 0x13f068e01d801e38ull, 20780},
    {workload::TrafficPattern::kHotspot, 0xfa9f7479cfb270c0ull, 24687},
};

class FabricDeterminism
    : public ::testing::TestWithParam<workload::TrafficPattern> {};

TEST_P(FabricDeterminism, MatchesPinnedDigest) {
  const auto pattern = GetParam();
  const Pin* pin = std::find_if(
      std::begin(kPinned), std::end(kPinned),
      [pattern](const Pin& p) { return p.pattern == pattern; });
  ASSERT_NE(pin, std::end(kPinned)) << "no pin for this pattern";
  const auto got = run_fat_tree(pattern, 1);
  EXPECT_EQ(got.digest, pin->digest)
      << "digest changed: observable simulation behavior differs; got 0x"
      << std::hex << got.digest;
  EXPECT_EQ(got.events, pin->events) << "got " << got.events << " events";
}

TEST_P(FabricDeterminism, DigestIdenticalAcrossThreadCounts) {
  const auto ref = run_fat_tree(GetParam(), 1);
  for (int threads : {2, 4}) {
    const auto got = run_fat_tree(GetParam(), threads);
    EXPECT_EQ(got.digest, ref.digest) << threads << " threads";
    EXPECT_EQ(got.events, ref.events) << threads << " threads";
    EXPECT_EQ(got.p999, ref.p999) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, FabricDeterminism,
    ::testing::Values(workload::TrafficPattern::kUniform,
                      workload::TrafficPattern::kPermutation,
                      workload::TrafficPattern::kIncast,
                      workload::TrafficPattern::kHotspot),
    [](const auto& p) { return workload::to_string(p.param); });

// The lookahead matrix must reflect true fat-tree distances: two hosts in
// the same pod are closer than two hosts in different pods, and the
// ParallelCluster picks the minimum over host pairs per shard pair.
TEST(FabricLookahead, TracksTopologyDistance) {
  auto params = net::fat_tree_cluster(32, 4, 2);
  const net::Topo topo(params.fabric, 32);
  // 8 hosts per pod (radix 4, oversub 2, 4 hosts per edge switch).
  ASSERT_EQ(topo.hops(0, 4), 3);   // same pod, different edge
  ASSERT_EQ(topo.hops(0, 8), 5);   // cross pod
  net::ParallelCluster cl(params, 8);  // 4 hosts per shard = one edge each
  // Shards 0 and 1 share a pod; shards 0 and 2 do not. More hops = more
  // conservative slack between the shards.
  EXPECT_GT(cl.lookahead(0, 2), cl.lookahead(0, 1));
  EXPECT_EQ(cl.lookahead(0, 2), cl.lookahead(0, 7));
}

// Open-loop schedule generation is pure: same seed, same flows; different
// seed, different flows — independent of everything else in this binary.
TEST(FabricSchedule, SeedReplay) {
  workload::TrafficConfig cfg;
  cfg.flows_per_host = 16;
  cfg.seed = 99;
  const auto a = workload::make_schedule(cfg, 16);
  const auto b = workload::make_schedule(cfg, 16);
  ASSERT_EQ(a.total_flows, b.total_flows);
  for (int h = 0; h < 16; ++h) {
    ASSERT_EQ(a.per_host[h].size(), b.per_host[h].size());
    for (std::size_t k = 0; k < a.per_host[h].size(); ++k) {
      EXPECT_EQ(a.per_host[h][k].dst, b.per_host[h][k].dst);
      EXPECT_EQ(a.per_host[h][k].size, b.per_host[h][k].size);
      EXPECT_EQ(a.per_host[h][k].arrival, b.per_host[h][k].arrival);
    }
  }
  cfg.seed = 100;
  const auto c = workload::make_schedule(cfg, 16);
  bool any_diff = false;
  for (int h = 0; h < 16 && !any_diff; ++h) {
    for (std::size_t k = 0; k < a.per_host[h].size(); ++k) {
      if (c.per_host[h].size() != a.per_host[h].size() ||
          c.per_host[h][k].arrival != a.per_host[h][k].arrival) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace fmx
