// Explicit credit returns from FM_extract (paper §4 receiver flow control):
// a poll must cost work per peer actually owed credits, not per host in the
// cluster, and the owed-peer set must return exactly the credits the
// per-peer threshold rule says — across several bitset words.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/frame_pool.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx::fm2 {
namespace {

using sim::Task;

struct World {
  World(net::ClusterParams p, Config cfg) : cluster(p, 1) {
    for (int i = 0; i < p.n_hosts; ++i) {
      eps.push_back(std::make_unique<Endpoint>(cluster.node(i),
                                               cluster.fabric_of(i), cfg));
    }
  }
  Endpoint& ep(int i) { return *eps[i]; }

  net::ParallelCluster cluster;
  sim::Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<Endpoint>> eps;
};

// Coroutine frames created by one extract() on host 0 of an idle cluster,
// where host 0 owes nobody credits.
std::uint64_t idle_extract_frames(int hosts) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(hosts), 1);
  sim::Engine& eng = cluster.shard_engine(0);
  Endpoint ep(cluster.node(0), cluster.fabric_of(0));
  cluster.run();  // NIC control programs park on empty queues
  const std::uint64_t before = sim::frame_pool_stats().allocs;
  eng.spawn([](Endpoint& e) -> Task<void> { (void)co_await e.extract(); }(ep));
  EXPECT_TRUE(fmx::test::run_to_exhaustion(cluster));
  return sim::frame_pool_stats().allocs - before;
}

TEST(Fm2CreditReturn, IdleExtractCostIndependentOfClusterSize) {
  EXPECT_EQ(idle_extract_frames(512), idle_extract_frames(2));
}

// 100 hosts: the owed set spans two 64-bit words, the second one partial.
// Odd peers send host 0 two single-packet messages (reaching the return
// threshold of 2), even peers send one (staying below it).
TEST(Fm2CreditReturn, OneCreditPacketPerPeerAtThresholdAcrossWords) {
  constexpr int kHosts = 100;
  auto params = net::ppro_fm2_cluster(kHosts);
  params.nic.host_ring_slots = 512;  // room for 99 peers x 4 credits
  Config cfg;
  cfg.credits_per_peer = 4;
  World w(params, cfg);
  ASSERT_EQ(w.ep(0).credit_return_threshold(), 2);

  auto sends = [](int p) { return p % 2 == 1 ? 2 : 1; };
  const Bytes msg = pattern_bytes(5, 64);
  int expected = 0;
  int received = 0;
  w.ep(0).register_handler(1, [&](RecvStream& s, int) -> HandlerTask {
    co_await s.skip(s.msg_bytes());
    ++received;
  });
  for (int p = 1; p < kHosts; ++p) {
    expected += sends(p);
    w.eng.spawn([](Endpoint& ep, int n, ByteSpan m) -> Task<void> {
      for (int i = 0; i < n; ++i) co_await ep.send(0, 1, m);
    }(w.ep(p), sends(p), ByteSpan{msg}));
  }
  w.eng.spawn([](Endpoint& ep, const int& got, int want) -> Task<void> {
    co_await ep.poll_until([&] { return got == want; });
  }(w.ep(0), received, expected));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));
  ASSERT_EQ(received, expected);

  // Each peer at the threshold got exactly one explicit credit packet (the
  // only packet it has received); the others got nothing yet.
  EXPECT_EQ(w.ep(0).stats().credit_packets_sent,
            static_cast<std::uint64_t>(kHosts / 2));
  for (int p = 1; p < kHosts; ++p) {
    EXPECT_EQ(w.cluster.node(p).nic().stats().rx_packets, p % 2 == 1 ? 1u : 0u)
        << "peer " << p;
    EXPECT_EQ(w.ep(0).credits_pending_return(p), p % 2 == 1 ? 0 : 1)
        << "peer " << p;
  }

  // Host 0 replies once to each even peer: the single freed slot rides that
  // data packet, so no further credit packet is sent. Odd peers extract
  // their credit packet.
  std::vector<int> replies(kHosts, 0);
  for (int p = 1; p < kHosts; ++p) {
    if (p % 2 == 1) {
      w.eng.spawn([](Endpoint& ep) -> Task<void> {
        (void)co_await ep.extract();
      }(w.ep(p)));
      continue;
    }
    w.ep(p).register_handler(1, [&replies, p](RecvStream& s,
                                              int) -> HandlerTask {
      co_await s.skip(s.msg_bytes());
      ++replies[p];
    });
    w.eng.spawn([](Endpoint& ep, int dest, ByteSpan m) -> Task<void> {
      co_await ep.send(dest, 1, m);
    }(w.ep(0), p, ByteSpan{msg}));
    w.eng.spawn([](Endpoint& ep, const int& got) -> Task<void> {
      co_await ep.poll_until([&] { return got == 1; });
    }(w.ep(p), replies[p]));
  }
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));

  EXPECT_EQ(w.ep(0).stats().credit_packets_sent,
            static_cast<std::uint64_t>(kHosts / 2));
  for (int p = 1; p < kHosts; ++p) {
    EXPECT_EQ(replies[p], p % 2 == 1 ? 0 : 1) << "peer " << p;
    EXPECT_EQ(w.cluster.node(p).nic().stats().rx_packets, 1u) << "peer " << p;
    EXPECT_EQ(w.ep(0).credits_pending_return(p), 0) << "peer " << p;
    EXPECT_EQ(w.ep(p).credits_available(0), cfg.credits_per_peer)
        << "peer " << p;
  }
}

}  // namespace
}  // namespace fmx::fm2
