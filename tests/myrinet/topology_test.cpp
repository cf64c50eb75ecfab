// Fabric topology and contention behaviour: multi-switch routing costs,
// shared-link congestion, incast back-pressure, and simulation determinism.
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"

namespace fmx::net {
namespace {

using sim::Engine;
using sim::Task;

TEST(Topology, LatencyGrowsWithHopCount) {
  ClusterParams p = ppro_fm2_cluster(24);  // 3 switches of 8
  ParallelCluster cl(p, 1);
  auto lat = [&](int dst) {
    return cl.fabric_of(0).zero_load_latency(0, dst, 128);
  };
  // Same switch < one chain hop < two chain hops.
  EXPECT_LT(lat(7), lat(8));
  EXPECT_LT(lat(15), lat(16));
  sim::Ps per_hop = lat(16) - lat(8);
  EXPECT_EQ(per_hop, p.fabric.link_latency + p.fabric.switch_latency);
}

TEST(Topology, InterSwitchLinkIsSharedBottleneck) {
  // Four flows all crossing the same inter-switch link split its capacity;
  // four intra-switch flows do not contend.
  auto run = [](bool cross_switch) {
    ClusterParams p = ppro_fm2_cluster(16);
    // Make endpoints fast so the wire is the bottleneck.
    p.bus.dma_setup = 0;
    p.bus.dma_ps_per_byte = 1'000;
    p.nic.per_packet_tx = sim::ns(100);
    p.nic.per_packet_rx = sim::ns(100);
    p.nic.sram_rx_slots = 64;
    ParallelCluster cl(p, 1);
    Engine& eng = cl.shard_engine(0);
    constexpr int kN = 100;
    constexpr std::size_t kSize = 1024;
    int flows = 4;
    int done = 0;
    for (int f = 0; f < flows; ++f) {
      int src = f;                            // switch 0
      int dst = cross_switch ? 8 + f : 4 + f; // switch 1 vs switch 0
      eng.spawn([](ParallelCluster& c, int s, int d) -> Task<void> {
        for (int i = 0; i < kN; ++i) {
          co_await c.node(s).nic().enqueue(SendDescriptor(
              d, BufferRef::copy_of(ByteSpan{Bytes(kSize)}), true));
        }
      }(cl, src, dst));
      eng.spawn([](ParallelCluster& c, int d, int& dn) -> Task<void> {
        for (int i = 0; i < kN; ++i) {
          (void)co_await c.node(d).nic().host_ring().pop();
        }
        ++dn;
      }(cl, dst, done));
    }
    cl.run();
    EXPECT_EQ(done, flows);
    return flows * kN * kSize / sim::to_seconds(eng.now());
  };
  double intra = run(false);
  double inter = run(true);
  // All four cross-switch flows share one 160 MB/s chain link.
  EXPECT_LT(inter, 180e6);
  EXPECT_GT(intra, inter * 2.5);
}

TEST(Topology, IncastBackPressurePacesAllSenders) {
  // 7-to-1 incast over FM 2.x: credits divide the receiver ring, everyone
  // completes, and nothing overflows (no drops exist by construction —
  // what's checked is completion and bounded ring occupancy).
  ClusterParams p = ppro_fm2_cluster(8);
  ParallelCluster cl(p, 1);
  Engine& eng = cl.shard_engine(0);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  for (int i = 0; i < 8; ++i) {
    eps.push_back(std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
  }
  constexpr int kMsgs = 30;
  int got = 0;
  eps[7]->register_handler(0, [&](fm2::RecvStream& s,
                                  int src) -> fm2::HandlerTask {
    Bytes buf(s.msg_bytes());
    co_await s.receive(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(src, 0, ByteSpan{buf}), -1);
    ++got;
  });
  for (int srcn = 0; srcn < 7; ++srcn) {
    eng.spawn([](fm2::Endpoint& ep, int me) -> Task<void> {
      Bytes m = pattern_bytes(me, 2000);
      for (int i = 0; i < kMsgs; ++i) co_await ep.send(7, 0, ByteSpan{m});
    }(*eps[srcn], srcn));
  }
  eng.spawn([](fm2::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == 7 * kMsgs; });
  }(*eps[7], got));
  cl.run();
  EXPECT_EQ(got, 7 * kMsgs);
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(Determinism, IdenticalRunsBitForBit) {
  auto run_fingerprint = [] {
    ClusterParams p = ppro_fm2_cluster(4);
    p.nic.reliable_link = true;
    ParallelCluster cl(p, 1);
    Engine& eng = cl.shard_engine(0);
    fault::FaultPlan plan = fault::FaultPlan::clean();
    plan.wire.corrupt = 0.03;
    auto injectors = fault::arm(cl, plan);
    std::vector<std::unique_ptr<fm2::Endpoint>> eps;
    for (int i = 0; i < 4; ++i) {
      eps.push_back(
          std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
    }
    std::uint64_t order_hash = 0;
    int total = 0;
    for (int i = 0; i < 4; ++i) {
      eps[i]->register_handler(
          0, [&order_hash, &total, i](fm2::RecvStream& s,
                                      int src) -> fm2::HandlerTask {
            co_await s.skip(s.remaining());
            order_hash = order_hash * 1099511628211ull ^
                         (static_cast<std::uint64_t>(i) << 8 ^ src);
            ++total;
          });
    }
    for (int i = 0; i < 4; ++i) {
      eng.spawn([](fm2::Endpoint& ep, int me) -> Task<void> {
        for (int k = 0; k < 10; ++k) {
          Bytes m(64 + 100 * me);
          co_await ep.send((me + 1 + k) % 4, 0, ByteSpan{m});
        }
        co_await ep.poll_until([] { return false; });  // serve until kicked
      }(*eps[i], i));
    }
    eng.spawn([](Engine& e,
                 std::vector<std::unique_ptr<fm2::Endpoint>>& es,
                 int& t) -> Task<void> {
      while (t < 40) {
        co_await e.delay(sim::us(100));
      }
      for (auto& ep : es) ep->kick();  // release the serving loops
    }(eng, eps, total));
    cl.run();
    return std::tuple{total, eng.events_processed(), order_hash};
  };
  auto a = run_fingerprint();
  auto b = run_fingerprint();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace fmx::net
