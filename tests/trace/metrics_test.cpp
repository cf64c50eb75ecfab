// trace::Histogram behavior, and where each layer's counters are read:
// every layer keeps its counts in its own Stats struct (or CostLedger)
// and callers read them through the owner's accessor. Nothing registers
// by name at construction, so building a cluster or an endpoint costs a
// handful of allocations per host, not one per counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bench/common/alloc_hook.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "tests/common/sim_fixture.hpp"
#include "trace/metrics.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

TEST(Metrics, CountersAndHistograms) {
  // Counters are plain Stats fields (see ClusterExposesEveryLayerByName).
  // A histogram counts and sums what it observes.
  trace::Histogram h({10, 100, 1000});
  h.observe(5);
  h.observe(50);
  h.observe(5000);  // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 5055u);
}

TEST(Metrics, HistogramQuantilesOnKnownInputs) {
  // 100 observations 1..100 in buckets {10, 20, ..., 100}: every bucket
  // holds exactly 10 and interpolation is linear, so quantiles land where
  // arithmetic says.
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 10; b <= 100; b += 10) bounds.push_back(b);
  trace::Histogram h(bounds);
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // p50: rank 50 = end of bucket (40,50]; interpolation gives its upper
  // edge exactly.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_NEAR(h.quantile(0.999), 100.0, 0.2);
  // Monotone in q.
  for (double q = 0.1; q < 1.0; q += 0.1) {
    EXPECT_LE(h.quantile(q - 0.05), h.quantile(q));
  }
}

TEST(Metrics, HistogramQuantileEdgesClampToObservedSupport) {
  trace::Histogram h({100, 1000, 10000});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  // A single value: every quantile is that value (bucket interpolation
  // must not leak the bucket's full [lower, upper] width).
  h.observe(500);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 500.0);
  }
  // Overflow bucket: estimates stay within [min, max], never run off to
  // infinity even though the last bucket has no upper bound.
  h.observe(50000);
  h.observe(70000);
  EXPECT_LE(h.quantile(0.999), 70000.0);
  EXPECT_GE(h.quantile(0.001), 500.0);
}

TEST(Metrics, HistogramMergeAndReset) {
  trace::Histogram a({10, 100}), b({10, 100});
  a.observe(5);
  a.observe(50);
  b.observe(7);
  b.observe(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 562u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);
  // Merging an empty histogram leaves min/max untouched.
  trace::Histogram empty({10, 100});
  a.merge(empty);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);

  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.sum(), 0u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
  a.observe(42);  // usable again, with fresh min/max tracking
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 42u);
}

TEST(Metrics, LatencyBoundsCoverTheSimRange) {
  const auto bounds = trace::latency_bounds_ps();
  ASSERT_GT(bounds.size(), 80u);
  EXPECT_EQ(bounds.front(), 1000u);           // 1 ns
  EXPECT_GT(bounds.back(), 100'000'000'000u);  // > 100 ms
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
    // 2^(1/4) spacing bounds the worst-case interpolation error.
    EXPECT_LT(static_cast<double>(bounds[i]) / bounds[i - 1], 1.20);
  }
}

// Every layer's counters after a 20-message FM 2.x stream, each read
// through its owner's accessor. (The name is kept so the suite's test
// list stays stable; nothing is looked up by name.)
TEST(Metrics, ClusterExposesEveryLayerByName) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  fm2::Endpoint tx(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint rx(cluster.node(1), cluster.fabric_of(1));
  int got = 0;
  Bytes sink(4096);
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    co_await s.receive(sink.data(), s.msg_bytes());
    ++got;
  });
  eng.spawn([](fm2::Endpoint& ep) -> Task<void> {
    Bytes m(4096);
    for (int i = 0; i < 20; ++i) co_await ep.send(1, 0, ByteSpan{m});
  }(tx));
  eng.spawn([](fm2::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == 20; });
  }(rx, got));
  ASSERT_TRUE(test::run_to_exhaustion(cluster));

  // The fabric, the NICs, a host's cost ledger, the buffer pool and both
  // endpoints.
  EXPECT_GT(cluster.fabric_stats().packets, 0u);
  EXPECT_EQ(tx.stats().msgs_sent, 20u);
  EXPECT_EQ(rx.stats().msgs_received, 20u);
  EXPECT_EQ(rx.stats().bytes_received, 20u * 4096);
  EXPECT_GT(cluster.node(0).nic().stats().tx_packets, 0u);
  EXPECT_GT(cluster.node(1).nic().stats().rx_packets, 0u);
  EXPECT_GT(cluster.node(1).host().ledger().copies(), 0u);
  EXPECT_GT(cluster.shard_fabric(0).pool().stats().acquires, 0u);
  EXPECT_EQ(cluster.fabric_stats().dropped, 0u);
}

TEST(Metrics, SetupAllocatesPerHostNotPerCounter) {
  // A 1024-host fat-tree build and an FM 2.x endpoint on it allocate a
  // few blocks per host (links, NIC and host state, per-peer vectors).
  // Binding every counter to a name at construction costs at least one
  // allocation per counter per node, which breaks both bounds.
  bench::alloc_hook_reset();
  net::ParallelCluster cl(net::fat_tree_cluster(1024), 1);
  EXPECT_LE(bench::alloc_hook_count(), 20u * 1024);

  bench::alloc_hook_reset();
  fm2::Endpoint ep(cl.node(0), cl.fabric_of(0));
  EXPECT_LE(bench::alloc_hook_count(), 10u);
}

TEST(Metrics, Fm2EndpointHoldsOneCompactRecordPerPeer) {
  // One 24-byte record per peer (credits, freed slots, next sequence, the
  // message in progress) plus the owed-peer bitset: 24,704 B at 1024
  // hosts. No handler table or receive context exists before it is used.
  net::ParallelCluster cl(net::fat_tree_cluster(1024), 1);
  bench::alloc_hook_reset();
  fm2::Endpoint ep(cl.node(0), cl.fabric_of(0));
  EXPECT_LE(bench::alloc_hook_bytes(), 32u * 1024);
}

TEST(Metrics, ReliableLinkBuildAllocatesPerHostNotPerPeer) {
  // Every NIC keeps go-back-N state for every peer, but a peer's
  // retention ring allocates only on its first send: the build stays a
  // few blocks per host, not one per (host, peer) pair.
  auto params = net::fat_tree_cluster(1024);
  params.nic.reliable_link = true;
  bench::alloc_hook_reset();
  net::ParallelCluster cl(params, 1);
  EXPECT_LE(bench::alloc_hook_count(), 20u * 1024);
}

TEST(Metrics, FirstMessageFromANewSourceReusesAFreeContext) {
  // A receiver owns receive contexts for the messages it has in flight,
  // not for every source it has heard from. Once one context is free, 61
  // first messages from new sources allocate exactly what the same 61
  // messages allocate again (the harness's own spawns).
  constexpr int kHosts = 64;
  net::ParallelCluster cl(net::fat_tree_cluster(kHosts), 1);
  sim::Engine& eng = cl.shard_engine(0);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  for (int i = 0; i < kHosts; ++i) {
    eps.push_back(
        std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
  }
  int got[2] = {0, 0};
  for (int r : {0, 1}) {
    eps[r]->register_handler(0, [&got, r](fm2::RecvStream& s,
                                          int) -> fm2::HandlerTask {
      co_await s.skip(s.msg_bytes());
      ++got[r];
    });
  }
  const Bytes msg(64);
  auto send = [](fm2::Endpoint& ep, int dst, ByteSpan m) -> Task<void> {
    co_await ep.send(dst, 0, m);
  };
  auto poll = [](fm2::Endpoint& ep, const int& n, int want) -> Task<void> {
    co_await ep.poll_until([&] { return n == want; });
  };

  // Warm every sender: two messages each to host 1.
  for (int src = 2; src < kHosts; ++src) {
    for (int k = 0; k < 2; ++k) eng.spawn(send(*eps[src], 1, ByteSpan{msg}));
  }
  eng.spawn(poll(*eps[1], got[1], 2 * (kHosts - 2)));
  ASSERT_TRUE(test::run_to_exhaustion(cl));

  // Host 0 receives from host 2, so it owns one context and it is free.
  // Its poll loop stays up across the rounds below.
  constexpr int kSources = kHosts - 3;  // hosts 3..63
  eng.spawn(poll(*eps[0], got[0], 1 + 2 * kSources));
  eng.spawn(send(*eps[2], 0, ByteSpan{msg}));
  cl.run();
  ASSERT_EQ(got[0], 1);

  std::uint64_t count[2], bytes[2];
  for (int round = 0; round < 2; ++round) {
    bench::alloc_hook_reset();
    for (int src = 3; src < kHosts; ++src) {
      eng.spawn(send(*eps[src], 0, ByteSpan{msg}));
      cl.run();
    }
    count[round] = bench::alloc_hook_count();
    bytes[round] = bench::alloc_hook_bytes();
  }
  EXPECT_EQ(got[0], 1 + 2 * kSources);
  EXPECT_EQ(eng.pending_roots(), 0);
  EXPECT_EQ(count[0], count[1]);
  EXPECT_EQ(bytes[0], bytes[1]);
}

}  // namespace
}  // namespace fmx
