// The link-level go-back-N extension: FM's "Myrinet is reliable" assumption
// made explicit and removable. With reliable_link on, the NIC recovers from
// injected corruption, drops and lost acks transparently; everything above
// (FM 2.x, MPI) keeps its guarantees over a lossy fabric.
#include <gtest/gtest.h>

#include "common/crc32.hpp"
#include "fault/injector.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx::net {
namespace {

using sim::Engine;
using sim::Task;

ClusterParams reliable(int n = 2) {
  ClusterParams p = ppro_fm2_cluster(n);
  p.nic.reliable_link = true;
  return p;
}

// Flip one payload bit in `rate` of the delivered packets.
std::vector<std::unique_ptr<fault::PlanInjector>> corrupt_wire(
    ParallelCluster& cl, double rate) {
  fault::FaultPlan plan = fault::FaultPlan::clean();
  plan.wire.corrupt = rate;
  return fault::arm(cl, plan);
}

// Drops every explicit ack (an ack_only packet) the fabric delivers before
// `until`; data packets pass untouched.
class AckDropper final : public FaultInjector {
 public:
  AckDropper(const Engine& eng, sim::Ps until) : eng_(eng), until_(until) {}
  WireFault on_deliver(const WirePacket& pkt) override {
    WireFault f;
    f.drop = pkt.ack_only && eng_.now() < until_;
    drops += f.drop ? 1 : 0;
    return f;
  }
  int drops = 0;

 private:
  const Engine& eng_;
  sim::Ps until_;
};

TEST(ReliableLink, RecoversFromInjectedErrors) {
  ParallelCluster cl(reliable(), 1);
  Engine& eng = cl.shard_engine(0);
  auto injectors = corrupt_wire(cl, 0.08);
  constexpr int kN = 300;
  eng.spawn([](ParallelCluster& c) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      co_await c.node(0).nic().enqueue(SendDescriptor(
          1, BufferRef::copy_of(ByteSpan{pattern_bytes(i, 512)}), true));
    }
  }(cl));
  int got = 0;
  eng.spawn([](ParallelCluster& c, int& g) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      RxPacket p = co_await c.node(1).nic().host_ring().pop();
      // Reliable AND in order AND intact.
      EXPECT_EQ(pattern_mismatch(g, 0, p.payload), -1) << "packet " << g;
      ++g;
    }
  }(cl, got));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(cl));
  EXPECT_EQ(got, kN);
  EXPECT_GT(cl.fabric_stats().corrupted, 0u);              // errors happened
  EXPECT_GT(cl.node(0).nic().stats().retransmissions, 0u); // and were fixed
  EXPECT_EQ(cl.node(0).nic().unacked(), 0u);               // fully acked
}

TEST(ReliableLink, RecoversFromInjectedDrops) {
  // Whole packets evaporating (plus gratuitous duplicates) rather than bit
  // errors: go-back-N must fill every gap, discard every duplicate, and
  // deliver the byte-exact payload — re-verified here with an independent
  // CRC over what actually landed in host memory.
  ParallelCluster cl(reliable(), 1);
  Engine& eng = cl.shard_engine(0);
  fault::FaultPlan plan = fault::FaultPlan::clean(17);
  plan.wire.drop = 0.05;
  plan.wire.duplicate = 0.05;
  auto injectors = fault::arm(cl, plan);
  constexpr int kN = 300;
  std::vector<std::uint32_t> sent_crc(kN);
  eng.spawn([](ParallelCluster& c,
               std::vector<std::uint32_t>& crcs) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      Bytes m = pattern_bytes(i, 512);
      crcs[static_cast<std::size_t>(i)] = crc32(m);
      co_await c.node(0).nic().enqueue(SendDescriptor(
          1, BufferRef::copy_of(ByteSpan{m}), true));
    }
  }(cl, sent_crc));
  int got = 0;
  eng.spawn([](ParallelCluster& c, const std::vector<std::uint32_t>& crcs,
               int& g) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      RxPacket p = co_await c.node(1).nic().host_ring().pop();
      // In order, exactly once, and the host-side CRC matches what the
      // sender computed before the packet ever touched the NIC.
      EXPECT_EQ(crc32(p.payload), crcs[static_cast<std::size_t>(g)])
          << "packet " << g;
      EXPECT_EQ(pattern_mismatch(g, 0, p.payload), -1) << "packet " << g;
      ++g;
    }
  }(cl, sent_crc, got));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(cl));
  EXPECT_EQ(got, kN);
  EXPECT_GT(injectors[0]->stats().drops, 0u);               // drops happened
  EXPECT_GT(cl.node(0).nic().stats().retransmissions, 0u);  // and were fixed
  // Injected duplicates (and go-back-N's own re-sends of packets that did
  // arrive) were discarded by the sequence check, not delivered twice.
  EXPECT_GT(cl.node(1).nic().stats().seq_dropped, 0u);
  EXPECT_EQ(cl.node(0).nic().unacked(), 0u);
}

TEST(ReliableLink, WithoutItErrorsLoseData) {
  ParallelCluster cl(ppro_fm2_cluster(2), 1);  // reliable_link stays OFF
  Engine& eng = cl.shard_engine(0);
  auto injectors = corrupt_wire(cl, 0.08);
  constexpr int kN = 300;
  eng.spawn([](ParallelCluster& c) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      co_await c.node(0).nic().enqueue(SendDescriptor(
          1, BufferRef::copy_of(ByteSpan{Bytes(512)}), true));
    }
  }(cl));
  int got = 0;
  eng.spawn_daemon([](ParallelCluster& c, int& g) -> Task<void> {
    for (;;) {
      (void)co_await c.node(1).nic().host_ring().pop();
      ++g;
    }
  }(cl, got));
  cl.run();
  EXPECT_LT(got, kN);  // some packets were silently lost
  EXPECT_GT(cl.node(1).nic().stats().crc_dropped, 0u);
}

TEST(ReliableLink, NoLossFastPathOverheadIsSmall) {
  // With zero error rate the protocol costs only acks: bandwidth within a
  // few percent of the baseline.
  auto run = [](bool reliable) {
    ClusterParams p = ppro_fm2_cluster(2);
    p.nic.reliable_link = reliable;
    ParallelCluster cl(p, 1);
    Engine& eng = cl.shard_engine(0);
    constexpr int kN = 200;
    sim::Ps t_end = 0;
    eng.spawn([](ParallelCluster& c) -> Task<void> {
      for (int i = 0; i < kN; ++i) {
        co_await c.node(0).nic().enqueue(SendDescriptor(
            1, BufferRef::copy_of(ByteSpan{Bytes(1024)}), true));
      }
    }(cl));
    eng.spawn([](Engine& e, ParallelCluster& c, sim::Ps& end) -> Task<void> {
      for (int i = 0; i < kN; ++i) {
        (void)co_await c.node(1).nic().host_ring().pop();
      }
      end = e.now();
    }(eng, cl, t_end));
    cl.run();
    return 1024.0 * kN / sim::to_seconds(t_end);
  };
  double base = run(false);
  double rel = run(true);
  EXPECT_GT(rel, base * 0.93);
}

TEST(ReliableLink, SurvivesAckLoss) {
  // Acks are packets too and get lost. Every explicit ack delivered in the
  // first 300 us evaporates, so the sender's window fills, its timeout
  // fires and it resends the window; the receiver must discard the
  // resent packets it already has by sequence check and re-ack them.
  // Losing fewer acks (2 of every 3, or only those before 100 us) causes
  // no retransmission at all: a later cumulative ack covers the lost ones.
  ParallelCluster cl(reliable(), 1);
  Engine& eng = cl.shard_engine(0);
  AckDropper dropper(eng, sim::us(300));
  cl.shard_fabric(0).set_fault(&dropper);
  constexpr int kN = 150;
  eng.spawn([](ParallelCluster& c) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      co_await c.node(0).nic().enqueue(SendDescriptor(
          1, BufferRef::copy_of(ByteSpan{pattern_bytes(i, 256)}), true));
    }
  }(cl));
  int got = 0;
  eng.spawn([](ParallelCluster& c, int& g) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      RxPacket p = co_await c.node(1).nic().host_ring().pop();
      EXPECT_EQ(pattern_mismatch(g, 0, p.payload), -1);
      ++g;
    }
  }(cl, got));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(cl));
  EXPECT_EQ(got, kN);
  EXPECT_GT(dropper.drops, 0);                              // acks were lost
  EXPECT_GT(cl.node(0).nic().stats().retransmissions, 0u);  // window resent
  // Retransmissions of already-delivered packets were dropped as dups.
  EXPECT_GT(cl.node(1).nic().stats().seq_dropped, 0u);
  EXPECT_EQ(cl.node(0).nic().unacked(), 0u);
}

TEST(ReliableLink, BidirectionalTrafficPiggybacksAcks) {
  ParallelCluster cl(reliable(), 1);
  Engine& eng = cl.shard_engine(0);
  constexpr int kN = 100;
  for (int dir = 0; dir < 2; ++dir) {
    eng.spawn([](ParallelCluster& c, int from) -> Task<void> {
      for (int i = 0; i < kN; ++i) {
        co_await c.node(from).nic().enqueue(SendDescriptor(
            1 - from, BufferRef::copy_of(ByteSpan{Bytes(256)}), true));
      }
    }(cl, dir));
    eng.spawn([](ParallelCluster& c, int at) -> Task<void> {
      for (int i = 0; i < kN; ++i) {
        (void)co_await c.node(at).nic().host_ring().pop();
      }
    }(cl, dir));
  }
  ASSERT_TRUE(fmx::test::run_to_exhaustion(cl));
  // With reverse data flowing, most acks ride piggyback: far fewer
  // explicit ack packets than data packets.
  EXPECT_LT(cl.node(0).nic().stats().acks_sent, kN);
}

TEST(ReliableLink, Fm2StackRunsIntactOverLossyFabric) {
  // The full FM 2.x protocol (credits, streams, handlers) on top of the
  // reliable-link extension, over a genuinely lossy wire.
  ParallelCluster cl(reliable(), 1);
  Engine& eng = cl.shard_engine(0);
  auto injectors = corrupt_wire(cl, 0.08);
  fm2::Endpoint tx(cl.node(0), cl.fabric_of(0));
  fm2::Endpoint rx(cl.node(1), cl.fabric_of(1));
  constexpr int kMsgs = 20;
  int seen = 0;
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    Bytes buf(s.msg_bytes());
    co_await s.receive(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(seen, 0, ByteSpan{buf}), -1);
    ++seen;
  });
  eng.spawn([](fm2::Endpoint& ep) -> Task<void> {
    for (std::size_t i = 0; i < kMsgs; ++i) {
      Bytes m = pattern_bytes(i, 3000);
      co_await ep.send(1, 0, ByteSpan{m});
    }
  }(tx));
  eng.spawn([](fm2::Endpoint& ep, int& n) -> Task<void> {
    co_await ep.poll_until([&] { return n == kMsgs; });
  }(rx, seen));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(cl));
  EXPECT_EQ(seen, kMsgs);
  EXPECT_GT(cl.fabric_stats().corrupted, 0u);
}

}  // namespace
}  // namespace fmx::net
