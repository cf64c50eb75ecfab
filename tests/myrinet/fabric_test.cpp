#include "myrinet/fabric.hpp"

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/sync.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx::net {
namespace {

using sim::Engine;
using sim::Task;

ClusterParams tiny(int n = 2) {
  ClusterParams p = ppro_fm2_cluster(n);
  return p;
}

// Flip one payload bit in `rate` of the delivered packets.
std::vector<std::unique_ptr<fault::PlanInjector>> corrupt_wire(
    ParallelCluster& cl, double rate) {
  fault::FaultPlan plan = fault::FaultPlan::clean();
  plan.wire.corrupt = rate;
  return fault::arm(cl, plan);
}

// Drives the fabric directly through NICs (no FM layer yet).
TEST(Fabric, DeliversPayloadIntact) {
  ParallelCluster cl(tiny(), 1);
  Engine& eng = cl.shard_engine(0);
  Bytes data = pattern_bytes(1, 300);
  eng.spawn([](ParallelCluster& c, Bytes d) -> Task<void> {
    co_await c.node(0).nic().enqueue(SendDescriptor{
        1, BufferRef::copy_of(ByteSpan{d}), true});
  }(cl, data));
  bool got = false;
  eng.spawn([](ParallelCluster& c, bool& g) -> Task<void> {
    RxPacket p = co_await c.node(1).nic().host_ring().pop();
    EXPECT_EQ(p.src, 0);
    EXPECT_EQ(pattern_mismatch(1, 0, p.payload), -1);
    EXPECT_EQ(p.payload.size(), 300u);
    g = true;
  }(cl, got));
  cl.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(eng.pending_roots(), 0);
  EXPECT_EQ(cl.node(1).nic().stats().rx_packets, 1u);
  EXPECT_EQ(cl.node(1).nic().stats().crc_dropped, 0u);
}

TEST(Fabric, InOrderDeliveryPerSourceDest) {
  ParallelCluster cl(tiny(), 1);
  Engine& eng = cl.shard_engine(0);
  constexpr int kN = 50;
  eng.spawn([](ParallelCluster& c) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      Bytes b(4);
      std::memcpy(b.data(), &i, 4);
      co_await c.node(0).nic().enqueue(SendDescriptor{
          1, BufferRef::copy_of(ByteSpan{b}), true});
    }
  }(cl));
  int received = 0;
  eng.spawn([](ParallelCluster& c, int& r) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      RxPacket p = co_await c.node(1).nic().host_ring().pop();
      int v;
      std::memcpy(&v, p.payload.data(), 4);
      EXPECT_EQ(v, i);  // network preserves order
      ++r;
    }
  }(cl, received));
  cl.run();
  EXPECT_EQ(received, kN);
}

TEST(Fabric, LatencyMatchesZeroLoadModel) {
  ClusterParams p = tiny();
  ParallelCluster cl(p, 1);
  Engine& eng = cl.shard_engine(0);
  sim::Ps arrival = 0;
  eng.spawn([](ParallelCluster& c) -> Task<void> {
    co_await c.node(0).nic().enqueue(
        SendDescriptor{1, BufferRef::copy_of(ByteSpan{Bytes(64)}), true});
  }(cl));
  eng.spawn([](ParallelCluster& c, sim::Ps& t) -> Task<void> {
    RxPacket pk = co_await c.node(1).nic().host_ring().pop();
    t = pk.arrived;
  }(cl, arrival));
  cl.run();
  // Expected: DMA fetch + NIC tx + wire (zero-load) + NIC rx + DMA to host.
  sim::Ps wire = cl.fabric_of(0).zero_load_latency(0, 1, 64);
  sim::Ps dma = cl.node(0).bus().dma_time(64);
  sim::Ps expect =
      dma + p.nic.per_packet_tx + wire + p.nic.per_packet_rx + dma;
  EXPECT_EQ(arrival, expect);
}

// Across a shard boundary the source replica walks every link but the
// downlink and the destination replica walks the downlink; together they
// must cost exactly the one cut-through walk of the zero-load model.
TEST(Fabric, CrossShardLatencyMatchesZeroLoadModel) {
  struct Case {
    ClusterParams p;
    int src;
    int dst;
  };
  const Case cases[] = {
      {ppro_fm2_cluster(16), 0, 12},  // two chained switches apart
      {fat_tree_cluster(64), 0, 63},  // across pods of a fat-tree
  };
  for (const Case& c : cases) {
    for (int shards : {1, 2}) {
      ParallelCluster cl(c.p, shards);
      sim::Ps arrival = 0;
      cl.spawn_on(c.src, [](Nic& nic, int dst) -> Task<void> {
        co_await nic.enqueue(SendDescriptor{
            dst, BufferRef::copy_of(ByteSpan{Bytes(64)}), true});
      }(cl.node(c.src).nic(), c.dst));
      cl.spawn_on(c.dst, [](Nic& nic, sim::Ps& t) -> Task<void> {
        RxPacket pk = co_await nic.host_ring().pop();
        t = pk.arrived;
      }(cl.node(c.dst).nic(), arrival));
      ASSERT_TRUE(fmx::test::run_to_exhaustion(cl));
      const sim::Ps wire =
          cl.fabric_of(c.src).zero_load_latency(c.src, c.dst, 64);
      const sim::Ps dma = cl.node(c.src).bus().dma_time(64);
      EXPECT_EQ(arrival, dma + c.p.nic.per_packet_tx + wire +
                             c.p.nic.per_packet_rx + dma)
          << c.src << " -> " << c.dst << " on " << shards << " shard(s)";
    }
  }
}

TEST(Fabric, BandwidthBoundedByBottleneckStage) {
  ClusterParams p = tiny();
  ParallelCluster cl(p, 1);
  Engine& eng = cl.shard_engine(0);
  constexpr int kN = 200;
  constexpr std::size_t kSize = 1024;
  sim::Ps done = 0;
  eng.spawn([](ParallelCluster& c) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      co_await c.node(0).nic().enqueue(SendDescriptor{
          1, BufferRef::copy_of(ByteSpan{Bytes(kSize)}), true});
    }
  }(cl));
  eng.spawn([](ParallelCluster& c, sim::Ps& d) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      (void)co_await c.node(1).nic().host_ring().pop();
    }
    d = c.shard_engine(0).now();
  }(cl, done));
  cl.run();
  double secs = sim::to_seconds(done);
  double bw = kN * kSize / secs;
  // Bottleneck is the PCI DMA stage: setup + per-byte, one DMA per side of
  // two different buses, so each node's bus does one DMA per packet.
  double per_pkt_us = sim::to_us(cl.node(0).bus().dma_time(kSize));
  double bound = kSize / (per_pkt_us * 1e-6);
  EXPECT_LT(bw, bound * 1.01);
  EXPECT_GT(bw, bound * 0.85);  // pipeline should approach the bound
}

TEST(Fabric, BitErrorsDetectedAndDropped) {
  ParallelCluster cl(tiny(), 1);
  Engine& eng = cl.shard_engine(0);
  auto injectors = corrupt_wire(cl, 0.3);  // absurdly noisy
  constexpr int kN = 100;
  eng.spawn([](ParallelCluster& c) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      co_await c.node(0).nic().enqueue(SendDescriptor{
          1, BufferRef::copy_of(ByteSpan{pattern_bytes(i, 512)}), true});
    }
  }(cl));
  int received = 0;
  eng.spawn_daemon([](ParallelCluster& c, int& r) -> Task<void> {
    for (;;) {
      RxPacket pk = co_await c.node(1).nic().host_ring().pop();
      (void)pk;
      ++r;
    }
  }(cl, received));
  cl.run();
  const auto& nic = cl.node(1).nic().stats();
  const auto& fab = cl.fabric_of(0).stats();
  EXPECT_GT(fab.corrupted, 0u);
  EXPECT_EQ(nic.crc_dropped, fab.corrupted);
  EXPECT_EQ(received + static_cast<int>(nic.crc_dropped), kN);
}

TEST(Fabric, CorruptedPayloadNeverReachesHost) {
  ParallelCluster cl(tiny(), 1);
  Engine& eng = cl.shard_engine(0);
  auto injectors = corrupt_wire(cl, 0.2);
  eng.spawn([](ParallelCluster& c) -> Task<void> {
    for (int i = 0; i < 200; ++i) {
      co_await c.node(0).nic().enqueue(SendDescriptor{
          1, BufferRef::copy_of(ByteSpan{pattern_bytes(7, 256)}), true});
    }
  }(cl));
  eng.spawn_daemon([](ParallelCluster& c) -> Task<void> {
    for (;;) {
      RxPacket pk = co_await c.node(1).nic().host_ring().pop();
      // Every packet that reaches the host passed CRC => intact bytes.
      EXPECT_EQ(pattern_mismatch(7, 0, pk.payload), -1);
    }
  }(cl));
  cl.run();
  EXPECT_GT(cl.node(1).nic().stats().crc_dropped, 0u);
}

TEST(Fabric, MultiSwitchRouting) {
  ClusterParams p = tiny(20);  // hosts_per_switch=8 -> 3 switches
  ParallelCluster cl(p, 1);
  Engine& eng = cl.shard_engine(0);
  EXPECT_EQ(cl.fabric_of(0).hops(0, 7), 1);
  EXPECT_EQ(cl.fabric_of(0).hops(0, 8), 2);
  EXPECT_EQ(cl.fabric_of(0).hops(0, 19), 3);
  EXPECT_EQ(cl.fabric_of(0).hops(5, 5), 0);
  // Cross-switch send works end to end.
  bool got = false;
  eng.spawn([](ParallelCluster& c) -> Task<void> {
    co_await c.node(0).nic().enqueue(SendDescriptor{
        19, BufferRef::copy_of(ByteSpan{pattern_bytes(3, 100)}), true});
  }(cl));
  eng.spawn([](ParallelCluster& c, bool& g) -> Task<void> {
    RxPacket pk = co_await c.node(19).nic().host_ring().pop();
    EXPECT_EQ(pk.src, 0);
    EXPECT_EQ(pattern_mismatch(3, 0, pk.payload), -1);
    g = true;
  }(cl, got));
  cl.run();
  EXPECT_TRUE(got);
  // Longer routes cost more zero-load latency.
  EXPECT_GT(cl.fabric_of(0).zero_load_latency(0, 19, 64),
            cl.fabric_of(0).zero_load_latency(0, 7, 64));
}

TEST(Fabric, LoopbackDelivery) {
  ParallelCluster cl(tiny(), 1);
  Engine& eng = cl.shard_engine(0);
  bool got = false;
  eng.spawn([](ParallelCluster& c, bool& g) -> Task<void> {
    co_await c.node(0).nic().enqueue(SendDescriptor{
        0, BufferRef::copy_of(ByteSpan{pattern_bytes(9, 40)}), true});
    RxPacket pk = co_await c.node(0).nic().host_ring().pop();
    EXPECT_EQ(pk.src, 0);
    EXPECT_EQ(pattern_mismatch(9, 0, pk.payload), -1);
    g = true;
  }(cl, got));
  cl.run();
  EXPECT_TRUE(got);
}

TEST(Fabric, ContentionTwoSendersOneReceiver) {
  ClusterParams p = tiny(3);
  ParallelCluster cl(p, 1);
  Engine& eng = cl.shard_engine(0);
  constexpr int kN = 100;
  constexpr std::size_t kSize = 1024;
  for (int s = 0; s < 2; ++s) {
    eng.spawn([](ParallelCluster& c, int src) -> Task<void> {
      for (int i = 0; i < kN; ++i) {
        co_await c.node(src).nic().enqueue(SendDescriptor{
            2, BufferRef::copy_of(ByteSpan{Bytes(kSize)}), true});
      }
    }(cl, s));
  }
  sim::Ps done = 0;
  eng.spawn([](ParallelCluster& c, sim::Ps& d) -> Task<void> {
    for (int i = 0; i < 2 * kN; ++i) {
      (void)co_await c.node(2).nic().host_ring().pop();
    }
    d = c.shard_engine(0).now();
  }(cl, done));
  cl.run();
  // Receiver's bus is now the shared bottleneck: aggregate bandwidth is
  // capped near the single-stream bound, not doubled.
  double bw = 2.0 * kN * kSize / sim::to_seconds(done);
  double per_pkt = sim::to_seconds(cl.node(2).bus().dma_time(kSize));
  double bound = kSize / per_pkt;
  EXPECT_LT(bw, bound * 1.02);
}

TEST(Fabric, BackPressureLimitsInFlight) {
  ClusterParams p = tiny();
  p.nic.sram_rx_slots = 2;
  p.nic.host_ring_slots = 2;
  ParallelCluster cl(p, 1);
  Engine& eng = cl.shard_engine(0);
  int sent = 0;
  // Receiver never drains: sender must stall after filling
  // ring (2) + SRAM slack (2) + tx queue (16) + 1 in the NIC's hands.
  eng.spawn([](ParallelCluster& c, int& s) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await c.node(0).nic().enqueue(SendDescriptor{
          1, BufferRef::copy_of(ByteSpan{Bytes(64)}), true});
      ++s;
    }
  }(cl, sent));
  cl.run();
  EXPECT_LT(sent, 30);
  EXPECT_EQ(eng.pending_roots(), 1);  // sender is rightly stuck
}

}  // namespace
}  // namespace fmx::net
