#include "fm1/fm1.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "myrinet/parallel_cluster.hpp"
#include "sim/random.hpp"

namespace fmx::fm1 {
namespace {

using sim::Engine;
using sim::Task;

struct World {
  explicit World(net::ClusterParams p, Config cfg = {})
      : cluster(p, 1) {
    for (int i = 0; i < p.n_hosts; ++i) {
      eps.push_back(std::make_unique<Endpoint>(cluster.node(i),
                                               cluster.fabric_of(i), cfg));
    }
  }
  Endpoint& ep(int i) { return *eps[i]; }

  net::ParallelCluster cluster;
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<Endpoint>> eps;
};

TEST(Fm1, SingleShortMessageDelivered) {
  World w(net::sparc_fm1_cluster(2));
  Bytes msg = pattern_bytes(1, 64);
  bool got = false;
  w.ep(1).register_handler(7, [&](int src, ByteSpan data) {
    EXPECT_EQ(src, 0);
    EXPECT_EQ(data.size(), 64u);
    EXPECT_EQ(pattern_mismatch(1, 0, data), -1);
    got = true;
  });
  w.eng.spawn([](Endpoint& ep, ByteSpan m) -> Task<void> {
    co_await ep.send(1, 7, m);
  }(w.ep(0), ByteSpan{msg}));
  w.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    co_await ep.poll_until([&] { return g; });
  }(w.ep(1), got));
  w.cluster.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(w.eng.pending_roots(), 0);
  EXPECT_EQ(w.ep(0).stats().msgs_sent, 1u);
  EXPECT_EQ(w.ep(1).stats().msgs_received, 1u);
}

TEST(Fm1, Send4FastPath) {
  World w(net::sparc_fm1_cluster(2));
  std::uint32_t seen[4] = {};
  bool got = false;
  w.ep(1).register_handler(3, [&](int, ByteSpan data) {
    ASSERT_EQ(data.size(), 16u);
    std::memcpy(seen, data.data(), 16);
    got = true;
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    co_await ep.send4(1, 3, 10, 20, 30, 40);
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    co_await ep.poll_until([&] { return g; });
  }(w.ep(1), got));
  w.cluster.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(seen[0], 10u);
  EXPECT_EQ(seen[1], 20u);
  EXPECT_EQ(seen[2], 30u);
  EXPECT_EQ(seen[3], 40u);
}

TEST(Fm1, MultiPacketMessageReassembled) {
  World w(net::sparc_fm1_cluster(2));
  // 128 B MTU - 16 B header = 112 B segments; 1000 B spans 9 packets.
  Bytes msg = pattern_bytes(5, 1000);
  bool got = false;
  w.ep(1).register_handler(0, [&](int, ByteSpan data) {
    EXPECT_EQ(data.size(), 1000u);
    EXPECT_EQ(pattern_mismatch(5, 0, data), -1);
    got = true;
  });
  w.eng.spawn([](Endpoint& ep, ByteSpan m) -> Task<void> {
    co_await ep.send(1, 0, m);
  }(w.ep(0), ByteSpan{msg}));
  w.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    co_await ep.poll_until([&] { return g; });
  }(w.ep(1), got));
  w.cluster.run();
  EXPECT_TRUE(got);
  EXPECT_GE(w.ep(0).stats().packets_sent, 9u);
  // Reassembly really copied packets into the staging buffer.
  EXPECT_GT(w.ep(1).host().ledger().copies(), 0u);
}

TEST(Fm1, EmptyMessageInvokesHandler) {
  World w(net::sparc_fm1_cluster(2));
  bool got = false;
  w.ep(1).register_handler(1, [&](int, ByteSpan data) {
    EXPECT_EQ(data.size(), 0u);
    got = true;
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    co_await ep.send(1, 1, {});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    co_await ep.poll_until([&] { return g; });
  }(w.ep(1), got));
  w.cluster.run();
  EXPECT_TRUE(got);
}

TEST(Fm1, InOrderDeliveryAcrossManyMessages) {
  World w(net::sparc_fm1_cluster(2));
  constexpr int kN = 100;
  std::vector<int> order;
  w.ep(1).register_handler(0, [&](int, ByteSpan data) {
    int v;
    std::memcpy(&v, data.data(), 4);
    order.push_back(v);
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      Bytes b(4);
      std::memcpy(b.data(), &i, 4);
      co_await ep.send(1, 0, ByteSpan{b});
    }
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, std::vector<int>& o) -> Task<void> {
    co_await ep.poll_until([&] { return o.size() == kN; });
  }(w.ep(1), order));
  w.cluster.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(order[i], i);
}

TEST(Fm1, MixedSizesInterleavedStayOrderedAndIntact) {
  World w(net::sparc_fm1_cluster(2));
  // Alternating short and long messages stress reassembly bookkeeping.
  const std::vector<std::size_t> sizes = {16, 500, 112, 113, 1, 2048, 64, 300};
  std::size_t next = 0;
  w.ep(1).register_handler(0, [&](int, ByteSpan data) {
    ASSERT_LT(next, sizes.size());
    EXPECT_EQ(data.size(), sizes[next]);
    EXPECT_EQ(pattern_mismatch(next, 0, data), -1);
    ++next;
  });
  w.eng.spawn([](Endpoint& ep, const std::vector<std::size_t>& sz)
                  -> Task<void> {
    for (std::size_t i = 0; i < sz.size(); ++i) {
      Bytes b = pattern_bytes(i, sz[i]);
      co_await ep.send(1, 0, ByteSpan{b});
    }
  }(w.ep(0), sizes));
  w.eng.spawn([](Endpoint& ep, std::size_t& n, std::size_t want)
                  -> Task<void> {
    co_await ep.poll_until([&] { return n == want; });
  }(w.ep(1), next, sizes.size()));
  w.cluster.run();
  EXPECT_EQ(next, sizes.size());
}

TEST(Fm1, FlowControlStallsSenderUntilReceiverExtracts) {
  Config cfg;
  cfg.credits_per_peer = 4;
  World w(net::sparc_fm1_cluster(2), cfg);
  w.ep(1).register_handler(0, [](int, ByteSpan) {});
  int sent = 0;
  w.eng.spawn([](Endpoint& ep, int& s) -> Task<void> {
    for (int i = 0; i < 20; ++i) {
      Bytes b(32);
      co_await ep.send(1, 0, ByteSpan{b});
      ++s;
    }
  }(w.ep(0), sent));
  w.cluster.run();
  // Receiver never extracted: sender used its 4 credits then stalled.
  EXPECT_EQ(sent, 4);
  EXPECT_GT(w.ep(0).stats().credit_stall_events, 0u);
  EXPECT_EQ(w.eng.pending_roots(), 1);
  // Receiver starts extracting: sender finishes.
  int got = 0;
  w.ep(1).register_handler(0, [&](int, ByteSpan) { ++got; });
  w.eng.spawn([](Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == 20; });
  }(w.ep(1), got));
  w.cluster.run();
  EXPECT_EQ(sent, 20);
  EXPECT_EQ(got, 20);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(Fm1, CreditsPiggybackOnReverseTraffic) {
  Config cfg;
  cfg.credits_per_peer = 8;
  World w(net::sparc_fm1_cluster(2), cfg);
  int got0 = 0, got1 = 0;
  w.ep(0).register_handler(0, [&](int, ByteSpan) { ++got0; });
  w.ep(1).register_handler(0, [&](int, ByteSpan) { ++got1; });
  constexpr int kN = 50;
  // Ping-pong: each side's data packets carry credit returns, so explicit
  // credit packets should be rare or absent.
  w.eng.spawn([](Endpoint& ep, int& got) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      Bytes b(32);
      co_await ep.send(1, 0, ByteSpan{b});
      co_await ep.poll_until([&, i] { return got > i; });
    }
  }(w.ep(0), got0));
  w.eng.spawn([](Endpoint& ep, int& got) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      co_await ep.poll_until([&, i] { return got > i; });
      Bytes b(32);
      co_await ep.send(0, 0, ByteSpan{b});
    }
  }(w.ep(1), got1));
  w.cluster.run();
  EXPECT_EQ(got0, kN);
  EXPECT_EQ(got1, kN);
  EXPECT_EQ(w.ep(0).stats().credit_stall_events, 0u);
  EXPECT_EQ(w.ep(1).stats().credit_stall_events, 0u);
}

TEST(Fm1, ExplicitCreditPacketsFlowOnOneWayTraffic) {
  Config cfg;
  cfg.credits_per_peer = 8;
  World w(net::sparc_fm1_cluster(2), cfg);
  int got = 0;
  w.ep(1).register_handler(0, [&](int, ByteSpan) { ++got; });
  constexpr int kN = 100;  // far more than the credit allowance
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      Bytes b(32);
      co_await ep.send(1, 0, ByteSpan{b});
    }
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == kN; });
  }(w.ep(1), got));
  w.cluster.run();
  EXPECT_EQ(got, kN);
  // One-way traffic has nothing to piggyback on: explicit credit packets
  // must have been sent.
  EXPECT_GT(w.ep(1).stats().credit_packets_sent, 0u);
}

TEST(Fm1, MultipleHandlersDispatchById) {
  World w(net::sparc_fm1_cluster(2));
  int a = 0, b = 0;
  w.ep(1).register_handler(10, [&](int, ByteSpan) { ++a; });
  w.ep(1).register_handler(20, [&](int, ByteSpan) { ++b; });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(8);
    co_await ep.send(1, 10, ByteSpan{m});
    co_await ep.send(1, 20, ByteSpan{m});
    co_await ep.send(1, 10, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, int& a_, int& b_) -> Task<void> {
    co_await ep.poll_until([&] { return a_ + b_ == 3; });
  }(w.ep(1), a, b));
  w.cluster.run();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 1);
}

// The handler table grows on registration up to id 255. A packet naming an
// id with no handler, inside the table or past its end, is consumed and
// dropped.
TEST(Fm1, HandlerIdsUpTo255UnregisteredDropped) {
  World w(net::sparc_fm1_cluster(2));
  int got = 0;
  w.ep(1).register_handler(200, [&](int, ByteSpan) { ++got; });
  EXPECT_THROW(w.ep(1).register_handler(256, [](int, ByteSpan) {}),
               std::out_of_range);
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(8);
    co_await ep.send(1, 100, ByteSpan{m});  // inside the table, no handler
    co_await ep.send(1, 255, ByteSpan{m});  // past the table's end
    co_await ep.send(1, 200, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    co_await ep.poll_until([&] { return ep.stats().msgs_received == 3; });
  }(w.ep(1)));
  w.cluster.run();
  EXPECT_EQ(w.ep(1).stats().msgs_received, 3u);
  EXPECT_EQ(got, 1);
}

TEST(Fm1, ManyToOneDelivery) {
  World w(net::sparc_fm1_cluster(4));
  int got = 0;
  std::vector<int> per_src(4, 0);
  w.ep(3).register_handler(0, [&](int src, ByteSpan data) {
    EXPECT_EQ(pattern_mismatch(src, 0, data), -1);
    ++per_src[src];
    ++got;
  });
  for (int s = 0; s < 3; ++s) {
    w.eng.spawn([](Endpoint& ep, int src) -> Task<void> {
      for (int i = 0; i < 10; ++i) {
        Bytes b = pattern_bytes(src, 200);
        co_await ep.send(3, 0, ByteSpan{b});
      }
    }(w.ep(s), s));
  }
  w.eng.spawn([](Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == 30; });
  }(w.ep(3), got));
  w.cluster.run();
  EXPECT_EQ(per_src[0], 10);
  EXPECT_EQ(per_src[1], 10);
  EXPECT_EQ(per_src[2], 10);
}

TEST(Fm1, SelfSendDelivered) {
  World w(net::sparc_fm1_cluster(2));
  bool got = false;
  w.ep(0).register_handler(0, [&](int src, ByteSpan data) {
    EXPECT_EQ(src, 0);
    EXPECT_EQ(data.size(), 24u);
    got = true;
  });
  w.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    Bytes b(24);
    co_await ep.send(0, 0, ByteSpan{b});
    co_await ep.poll_until([&] { return g; });
  }(w.ep(0), got));
  w.cluster.run();
  EXPECT_TRUE(got);
}

TEST(Fm1, SingletonPacketIsZeroCopyOnReceive) {
  World w(net::sparc_fm1_cluster(2));
  bool got = false;
  w.ep(1).register_handler(0, [&](int, ByteSpan) { got = true; });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes b(64);
    co_await ep.send(1, 0, ByteSpan{b});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    co_await ep.poll_until([&] { return g; });
  }(w.ep(1), got));
  w.cluster.run();
  // The receiving host performed no payload copies: the handler saw the
  // packet in the ring (FM 1.x's short-message fast path).
  EXPECT_EQ(w.ep(1).host().ledger().copies(), 0u);
}

class Fm1PropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(Fm1PropertyTest, RandomTrafficIntegrityAndOrder) {
  auto [max_size, seed] = GetParam();
  World w(net::sparc_fm1_cluster(2));
  sim::Rng rng(seed);
  constexpr int kMsgs = 40;
  std::vector<std::size_t> sizes;
  for (int i = 0; i < kMsgs; ++i) sizes.push_back(rng.uniform(0, max_size));
  std::size_t next = 0;
  w.ep(1).register_handler(0, [&](int, ByteSpan data) {
    ASSERT_LT(next, sizes.size());
    EXPECT_EQ(data.size(), sizes[next]);
    EXPECT_EQ(pattern_mismatch(1000 + next, 0, data), -1);
    ++next;
  });
  w.eng.spawn([](Endpoint& ep, const std::vector<std::size_t>& sz)
                  -> Task<void> {
    for (std::size_t i = 0; i < sz.size(); ++i) {
      Bytes b = pattern_bytes(1000 + i, sz[i]);
      co_await ep.send(1, 0, ByteSpan{b});
    }
  }(w.ep(0), sizes));
  w.eng.spawn([](Endpoint& ep, std::size_t& n) -> Task<void> {
    co_await ep.poll_until([&] { return n == kMsgs; });
  }(w.ep(1), next));
  w.cluster.run();
  EXPECT_EQ(next, static_cast<std::size_t>(kMsgs));
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fm1PropertyTest,
    ::testing::Combine(::testing::Values(64, 500, 4000),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace fmx::fm1
