// Property sweep for the fault-injection subsystem: the full FM 2.x stack
// over a reliable link must deliver exactly-once, in-order, byte-exact and
// leave no orphaned resources under every fault profile, across many seeds
// and message sizes straddling the MTU boundaries; the same seed must
// reproduce the identical simulation event-for-event. With the reliable
// link OFF, the same faults must be *detected* (CRC drops, missing
// packets), never silently masked.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx::fault {
namespace {

using sim::Engine;
using sim::Task;

constexpr int kRounds = 3;  // size-grid repetitions per active direction

// Every profile injects >= 3% packet drops AND >= 3% corruption; the seed
// rotates extra stressors on top so the sweep covers duplication,
// reordering, bus stalls, and slow receivers.
FaultPlan profile_for(std::uint64_t seed) {
  FaultPlan p = FaultPlan::lossy(0.03, seed);
  switch (seed % 4) {
    case 0:
      break;  // drops + corruption only
    case 1:
      p.wire.duplicate = 0.02;
      p.wire.reorder = 0.02;
      p.wire.reorder_delay = sim::us(60);
      break;
    case 2:
      p.bus = {sim::us(150), sim::us(40), sim::us(4)};
      break;
    case 3:
      p.pacing.rx = sim::ns(500);
      p.pacing.rx_jitter = sim::us(2);
      break;
  }
  return p;
}

struct SweepResult {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  net::Fabric::Stats fabric;
  net::Nic::Stats nic0, nic1;
  PlanInjector::Stats inj;
  std::vector<std::string> violations;
  std::string report;
};

// Injector counters summed over every shard's injector.
PlanInjector::Stats total_stats(
    const std::vector<std::unique_ptr<PlanInjector>>& injectors) {
  PlanInjector::Stats t;
  for (const auto& inj : injectors) {
    const PlanInjector::Stats& s = inj->stats();
    t.packets_seen += s.packets_seen;
    t.drops += s.drops;
    t.duplicates += s.duplicates;
    t.corruptions += s.corruptions;
    t.reorders += s.reorders;
    t.bus_stalls += s.bus_stalls;
  }
  return t;
}

// One complete experiment: 2-node cluster with go-back-N link reliability,
// a seeded fault plan armed through every seam, and an FM2 message-size
// grid hitting the MTU±1 boundaries in each active direction. At 2 shards
// each node owns a shard, so every packet crosses shards. Returns the full
// observable state so callers can assert determinism field-by-field.
SweepResult run_sweep(std::uint64_t seed, int shards = 1, int threads = 1) {
  auto params = net::ppro_fm2_cluster(2);
  params.nic.reliable_link = true;
  if (seed % 3 == 0) {
    // Host-ring overflow pressure: a tiny ring + little SRAM slack forces
    // back-pressure through every buffering layer.
    params.nic.host_ring_slots = 8;
    params.nic.sram_rx_slots = 4;
  }
  net::ParallelCluster cl(params, shards);
  auto injectors = arm(cl, profile_for(seed));
  fm2::Endpoint ep0(cl.node(0), cl.fabric_of(0));
  fm2::Endpoint ep1(cl.node(1), cl.fabric_of(1));

  const std::size_t mtu = params.nic.mtu_payload;
  const std::size_t seg = ep0.max_payload_per_packet();
  const std::vector<std::size_t> sizes = {
      1,           seg - 1, seg, seg + 1, 2 * seg - 1,
      2 * seg + 1, mtu - 1, mtu, mtu + 1, 2 * mtu + 1};
  const bool bidirectional = (seed % 2 == 1);
  const int want = kRounds * static_cast<int>(sizes.size());
  const std::uint64_t tag[2] = {1000 * seed, 1000 * seed + 500};

  // Each node logs the payloads it received, touched only by its own
  // shard; the ledger replays sends and logs after the run.
  std::vector<Bytes> got_at[2];
  for (fm2::Endpoint* ep : {&ep0, &ep1}) {
    ep->register_handler(
        0, [&log = got_at[ep->id()]](fm2::RecvStream& s,
                                     int) -> fm2::HandlerTask {
          Bytes buf(s.msg_bytes());
          co_await s.receive(MutByteSpan{buf});
          log.push_back(std::move(buf));
        });
  }

  auto sender = [&sizes](fm2::Endpoint& ep, int dst, std::uint64_t base,
                         int n) -> Task<void> {
    for (int k = 0; k < n; ++k) {
      Bytes m = pattern_bytes(base + k, sizes[k % sizes.size()]);
      co_await ep.send(dst, 0, ByteSpan{m});
    }
  };
  auto receiver = [](fm2::Endpoint& ep, const std::vector<Bytes>& log,
                     int n) -> Task<void> {
    co_await ep.poll_until(
        [&log, n] { return log.size() == static_cast<std::size_t>(n); });
  };
  cl.spawn_on(0, sender(ep0, 1, tag[0], want));
  cl.spawn_on(1, receiver(ep1, got_at[1], want));
  if (bidirectional) {
    cl.spawn_on(1, sender(ep1, 0, tag[1], want));
    cl.spawn_on(0, receiver(ep0, got_at[0], want));
  }
  cl.run(threads);

  // Settle phase: absorb credit-return packets that landed after the last
  // extract (a send-only endpoint has no reason to keep polling). Extract
  // on a drained ring returns immediately and extraction itself cannot
  // create new data traffic, so this converges; the bound only guards a
  // checker-visible regression.
  for (int round = 0; round < 4; ++round) {
    if (cl.node(0).nic().host_ring_depth() == 0 &&
        cl.node(1).nic().host_ring_depth() == 0) {
      break;
    }
    for (fm2::Endpoint* ep : {&ep0, &ep1}) {
      cl.spawn_on(ep->id(), [](fm2::Endpoint& e) -> Task<void> {
        (void)co_await e.extract();
      }(*ep));
    }
    cl.run(threads);
  }

  InvariantLedger led;
  for (int src = 0; src < (bidirectional ? 2 : 1); ++src) {
    for (int k = 0; k < want; ++k) {
      led.note_sent(src, 1 - src,
                    ByteSpan{pattern_bytes(tag[src] + k,
                                           sizes[k % sizes.size()])});
    }
  }
  for (int dst = 0; dst < 2; ++dst) {
    for (const Bytes& b : got_at[dst]) {
      led.note_delivered(1 - dst, dst, ByteSpan{b});
    }
  }
  led.check_streams();
  for (int s = 0; s < cl.n_shards(); ++s) led.check_engine(cl.shard_engine(s));
  led.check_cluster(cl);
  led.check_fm2_pair(ep0, ep1);
  led.check_fm2_pair(ep1, ep0);

  SweepResult r;
  for (int s = 0; s < cl.n_shards(); ++s) {
    r.events += cl.shard_engine(s).events_processed();
  }
  r.delivered = led.messages_delivered();
  r.fabric = cl.fabric_stats();
  r.nic0 = cl.node(0).nic().stats();
  r.nic1 = cl.node(1).nic().stats();
  r.inj = total_stats(injectors);
  r.violations = led.violations();
  r.report = led.report();
  return r;
}

std::uint64_t want_delivered(std::uint64_t seed) {
  return kRounds * 10u * ((seed % 2 == 1) ? 2 : 1);
}

class FaultSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSweep, InvariantsHoldOverLossyFabric) {
  const std::uint64_t seed = GetParam();
  SweepResult r = run_sweep(seed);
  EXPECT_TRUE(r.violations.empty())
      << "seed " << seed << ":\n"
      << r.report << "reproduce with run_sweep(" << seed << ")";
  // The run was a real torture test, not a no-op: faults fired. (A single
  // seed may still see zero retransmissions — a dropped ack-only packet is
  // covered by the next cumulative ack — so the "protocol actually worked"
  // assertion lives in RecoveryMachineryExercisedAcrossSeeds.)
  EXPECT_GT(r.inj.drops + r.inj.corruptions, 0u) << "seed " << seed;
  EXPECT_EQ(r.delivered, want_delivered(seed)) << "seed " << seed;
}

// The same seeds on a 2-shard cluster, where every packet, ack and credit
// crosses shards: the invariants hold at 1 and 2 threads, and the thread
// count changes nothing the simulation observes.
TEST_P(FaultSweep, InvariantsHoldAcrossShards) {
  const std::uint64_t seed = GetParam();
  SweepResult one = run_sweep(seed, 2, 1);
  SweepResult two = run_sweep(seed, 2, 2);
  for (const SweepResult* r : {&one, &two}) {
    EXPECT_TRUE(r->violations.empty())
        << "seed " << seed << ":\n"
        << r->report << "reproduce with run_sweep(" << seed << ", 2)";
    EXPECT_GT(r->inj.drops + r->inj.corruptions, 0u) << "seed " << seed;
    EXPECT_EQ(r->delivered, want_delivered(seed)) << "seed " << seed;
  }
  EXPECT_EQ(one.events, two.events) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(FaultSweep, RecoveryMachineryExercisedAcrossSeeds) {
  // Summed over the whole seed range, every recovery path must have fired:
  // go-back-N retransmissions, duplicate/out-of-order discards, and CRC
  // rejections of corrupted packets. Any individual seed may dodge one
  // mechanism; the sweep as a whole may not.
  std::uint64_t retransmissions = 0, seq_dropped = 0, crc_dropped = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SweepResult r = run_sweep(seed);
    retransmissions += r.nic0.retransmissions + r.nic1.retransmissions;
    seq_dropped += r.nic0.seq_dropped + r.nic1.seq_dropped;
    crc_dropped += r.nic0.crc_dropped + r.nic1.crc_dropped;
  }
  EXPECT_GT(retransmissions, 0u);
  EXPECT_GT(seq_dropped, 0u);
  EXPECT_GT(crc_dropped, 0u);
}

TEST(FaultDeterminism, SameSeedSameSimulation) {
  // The acceptance bar: same seed => identical event count and stats.
  // Seeds cover each profile family and both traffic shapes.
  for (std::uint64_t seed : {1, 2, 3, 4, 6}) {
    SweepResult a = run_sweep(seed);
    SweepResult b = run_sweep(seed);
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    EXPECT_EQ(a.delivered, b.delivered) << "seed " << seed;
    EXPECT_EQ(a.fabric.packets, b.fabric.packets) << "seed " << seed;
    EXPECT_EQ(a.fabric.corrupted, b.fabric.corrupted) << "seed " << seed;
    EXPECT_EQ(a.fabric.dropped, b.fabric.dropped) << "seed " << seed;
    EXPECT_EQ(a.fabric.duplicated, b.fabric.duplicated) << "seed " << seed;
    EXPECT_EQ(a.nic0.tx_packets, b.nic0.tx_packets) << "seed " << seed;
    EXPECT_EQ(a.nic0.retransmissions, b.nic0.retransmissions)
        << "seed " << seed;
    EXPECT_EQ(a.nic1.seq_dropped, b.nic1.seq_dropped) << "seed " << seed;
    EXPECT_EQ(a.nic1.crc_dropped, b.nic1.crc_dropped) << "seed " << seed;
    EXPECT_EQ(a.inj.packets_seen, b.inj.packets_seen) << "seed " << seed;
    EXPECT_EQ(a.inj.injected(), b.inj.injected()) << "seed " << seed;
  }
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  // Sanity check that the seed actually steers the injection schedule:
  // same profile family (seed % 4 == 0), same traffic shape, different
  // seed must not replay the identical fault sequence.
  SweepResult a = run_sweep(4);
  SweepResult b = run_sweep(8);
  EXPECT_TRUE(a.events != b.events || a.inj.injected() != b.inj.injected());
}

TEST(FaultDetection, UnreliableLinkDropsAreObservedNotMasked) {
  // reliable_link OFF, same lossy profile: the stack above must be able to
  // SEE the damage — CRC drops counted, packets missing — rather than have
  // it silently corrupt data. Every payload that DOES arrive is intact.
  net::ParallelCluster cl(net::ppro_fm2_cluster(2), 1);  // reliable_link off
  Engine& eng = cl.shard_engine(0);
  auto injectors = arm(cl, FaultPlan::lossy(0.03, 7));
  constexpr int kN = 400;
  constexpr std::uint64_t kPattern = 42;
  eng.spawn([](net::ParallelCluster& c) -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      co_await c.node(0).nic().enqueue(net::SendDescriptor(
          1, BufferRef::copy_of(ByteSpan{pattern_bytes(kPattern, 512)}), true));
    }
  }(cl));
  int got = 0;
  eng.spawn_daemon([](net::ParallelCluster& c, int& g) -> Task<void> {
    for (;;) {
      net::RxPacket p = co_await c.node(1).nic().host_ring().pop();
      EXPECT_EQ(p.payload.size(), 512u);
      EXPECT_EQ(pattern_mismatch(kPattern, 0, ByteSpan{p.payload}), -1);
      ++g;
    }
  }(cl, got));
  ASSERT_TRUE(test::run_to_exhaustion(cl));
  EXPECT_GT(injectors[0]->stats().drops, 0u);
  EXPECT_GT(injectors[0]->stats().corruptions, 0u);
  EXPECT_LT(got, kN);  // losses are visible as missing packets...
  EXPECT_GT(cl.node(1).nic().stats().crc_dropped, 0u);  // ...and CRC counts
  EXPECT_EQ(cl.node(1).nic().stats().seq_dropped, 0u);  // seq layer off
}

TEST(FaultInjection, BusStallsSlowTheRunDeterministically) {
  // Same workload with and without bus-stall windows: the degraded run
  // finishes strictly later and the injector counts the stalls.
  auto run = [](bool degraded) {
    net::ParallelCluster cl(net::ppro_fm2_cluster(2), 1);
    Engine& eng = cl.shard_engine(0);
    auto plan = degraded ? FaultPlan::degraded_bus(11) : FaultPlan::clean(11);
    auto injectors = arm(cl, plan);
    eng.spawn([](net::ParallelCluster& c) -> Task<void> {
      for (int i = 0; i < 50; ++i) {
        co_await c.node(0).nic().enqueue(net::SendDescriptor(
            1, BufferRef::copy_of(ByteSpan{Bytes(1024)}), true));
      }
    }(cl));
    sim::Ps end = 0;
    eng.spawn(
        [](net::ParallelCluster& c, sim::Ps& e, Engine& en) -> Task<void> {
          for (int i = 0; i < 50; ++i) {
            (void)co_await c.node(1).nic().host_ring().pop();
          }
          e = en.now();
        }(cl, end, eng));
    EXPECT_TRUE(test::run_to_exhaustion(cl));
    return std::pair<sim::Ps, std::uint64_t>{
        end, injectors[0]->stats().bus_stalls};
  };
  auto [t_clean, stalls_clean] = run(false);
  auto [t_degraded, stalls_degraded] = run(true);
  EXPECT_EQ(stalls_clean, 0u);
  EXPECT_GT(stalls_degraded, 0u);
  EXPECT_GT(t_degraded, t_clean);
}

TEST(FaultInjection, SlowReceiverPacingBuildsBackPressure) {
  // rx pacing delays the NIC receive control program; with little SRAM
  // slack the whole transfer must observably take longer — the STOP/GO
  // back-pressure path from receive pacing to sender stalls.
  auto run = [](bool slow) {
    auto params = net::ppro_fm2_cluster(2);
    params.nic.sram_rx_slots = 2;
    net::ParallelCluster cl(params, 1);
    Engine& eng = cl.shard_engine(0);
    auto plan = slow ? FaultPlan::slow_receiver(3) : FaultPlan::clean(3);
    auto injectors = arm(cl, plan);
    eng.spawn([](net::ParallelCluster& c) -> Task<void> {
      for (int i = 0; i < 60; ++i) {
        co_await c.node(0).nic().enqueue(net::SendDescriptor(
            1, BufferRef::copy_of(ByteSpan{Bytes(512)}), true));
      }
    }(cl));
    sim::Ps end = 0;
    eng.spawn(
        [](net::ParallelCluster& c, sim::Ps& e, Engine& en) -> Task<void> {
          for (int i = 0; i < 60; ++i) {
            (void)co_await c.node(1).nic().host_ring().pop();
          }
          e = en.now();
        }(cl, end, eng));
    EXPECT_TRUE(test::run_to_exhaustion(cl));
    return end;
  };
  EXPECT_GT(run(true), run(false));
}

TEST(FaultInjection, PerLinkOverridesTargetOneDirection) {
  // Drop every packet 0->1 but none 1->0: node 1 starves while node 1's
  // own sends sail through — per-link schedules really are per-link.
  // Unreliable link so the drops stay visible.
  net::ParallelCluster cl(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cl.shard_engine(0);
  FaultPlan plan = FaultPlan::clean(5);
  LinkOverride kill;
  kill.src = 0;
  kill.dst = 1;
  kill.rates.drop = 1.0;
  plan.links.push_back(kill);
  auto injectors = arm(cl, plan);
  constexpr int kN = 20;
  for (int dir = 0; dir < 2; ++dir) {
    eng.spawn([](net::ParallelCluster& c, int from) -> Task<void> {
      for (int i = 0; i < kN; ++i) {
        co_await c.node(from).nic().enqueue(net::SendDescriptor(
            1 - from, BufferRef::copy_of(ByteSpan{Bytes(128)}), true));
      }
    }(cl, dir));
  }
  int got0 = 0, got1 = 0;
  eng.spawn_daemon([](net::ParallelCluster& c, int& g) -> Task<void> {
    for (;;) {
      (void)co_await c.node(1).nic().host_ring().pop();
      ++g;
    }
  }(cl, got1));
  eng.spawn_daemon([](net::ParallelCluster& c, int& g) -> Task<void> {
    for (;;) {
      (void)co_await c.node(0).nic().host_ring().pop();
      ++g;
    }
  }(cl, got0));
  ASSERT_TRUE(test::run_to_exhaustion(cl));
  EXPECT_EQ(got1, 0);   // the killed direction delivered nothing
  EXPECT_EQ(got0, kN);  // the clean direction delivered everything
  EXPECT_EQ(injectors[0]->stats().drops, static_cast<std::uint64_t>(kN));
}

}  // namespace
}  // namespace fmx::fault
