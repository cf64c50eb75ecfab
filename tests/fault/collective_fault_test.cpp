// Fault sweep targeted at the NIC-offloaded collective protocol. A
// kind-filtering injector cracks every kColl wire packet's CollHeader and
// unleashes a seeded drop/duplicate/corrupt plan on exactly ONE packet
// class per run — join (up), combine (up), fanout (down), done (down) — so
// each leg of the tree state machine is torn at individually. Over the
// reliable link every operation must still complete with exact values, the
// NICs must quiesce (no parked orphans, no queued partials), and the same
// (seed, class) must replay the identical simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/buffer.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/coll.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "myrinet/packet.hpp"

namespace fmx::fault {
namespace {

using sim::Engine;
using sim::Task;

const char* class_name(net::CollClass c) {
  switch (c) {
    case net::CollClass::kJoin:
      return "Join";
    case net::CollClass::kCombine:
      return "Combine";
    case net::CollClass::kFanout:
      return "Fanout";
    case net::CollClass::kDone:
      return "Done";
  }
  return "?";
}

/// Forwards only kColl packets of the targeted class to an inner
/// PlanInjector; all other traffic (data, acks, other collective legs)
/// passes untouched, so the fault schedule depends only on the targeted
/// class's packet stream.
class CollClassInjector final : public net::FaultInjector {
 public:
  CollClassInjector(Engine& eng, FaultPlan plan, net::CollClass target)
      : inner_(eng, std::move(plan)), target_(target) {}

  net::WireFault on_deliver(const net::WirePacket& pkt) override {
    if (pkt.kind != net::PacketKind::kColl) return {};
    net::CollHeader h;
    if (!net::coll_parse(pkt.payload.span(), h)) return {};
    if (static_cast<net::CollClass>(h.cls) != target_) return {};
    return inner_.on_deliver(pkt);
  }

  const PlanInjector::Stats& stats() const noexcept { return inner_.stats(); }

 private:
  PlanInjector inner_;
  net::CollClass target_;
};

/// Same rotation as the rendezvous sweep: drop+corrupt base, with
/// duplication or reordering layered on by seed so each link-recovery
/// mechanism gets exercised against each collective leg.
FaultPlan profile_for(std::uint64_t seed) {
  FaultPlan p = FaultPlan::lossy(0.10, seed);
  switch (seed % 3) {
    case 0:
      break;
    case 1:
      p.wire.duplicate = 0.08;
      break;
    case 2:
      p.wire.reorder = 0.08;
      p.wire.reorder_delay = sim::us(60);
      break;
  }
  return p;
}

struct SweepResult {
  std::uint64_t events = 0;
  int completed_ranks = 0;
  std::vector<double> allreduce;   // per-rank result (must all agree)
  std::vector<double> subreduce;   // odd-rank subgroup allreduce results
  std::vector<double> reduce_root; // root's reduce output
  bool bcast_ok = true;
  net::Fabric::Stats fabric;
  std::uint64_t coll_rx = 0, coll_combines = 0, coll_forwards = 0;
  std::uint64_t coll_completions = 0, coll_orphaned = 0, coll_stale = 0;
  std::uint64_t retransmissions = 0, crc_dropped = 0, seq_dropped = 0;
  PlanInjector::Stats inj;
  std::vector<std::string> violations;
  std::string report;
};

/// One experiment: a 12-node reliable-link chain cluster (two crossbars, so
/// the tree has cross-switch edges), joins staggered by seed and rank (early
/// join packets land on NICs that have not installed the group yet — the
/// orphan-parking path), then barrier -> allreduce -> bcast -> reduce ->
/// barrier under class-targeted faults.
SweepResult run_sweep(std::uint64_t seed, net::CollClass target) {
  constexpr int kN = 12;
  constexpr std::size_t kBcastBytes = 64;
  auto params = net::ppro_fm2_cluster(kN);
  params.nic.reliable_link = true;
  net::ParallelCluster cl(params, 1);
  Engine& eng = cl.shard_engine(0);
  CollClassInjector inj(eng, profile_for(seed), target);
  cl.fabric_of(0).set_fault(&inj);

  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  for (int i = 0; i < kN; ++i) {
    eps.push_back(std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
  }
  net::CollGroupSpec spec;
  spec.id = 7;
  for (int i = 0; i < kN; ++i) spec.members.push_back(i);
  spec.radix = 3;

  // Second group over the odd ranks, rooted at 3, joined mid-run with
  // per-rank stagger: its join packets land on NICs whose collective
  // engine is already live for group 7 but have not installed group 8 yet
  // — the orphan-parking/replay path.
  net::CollGroupSpec sub;
  sub.id = 8;
  sub.members = {3, 1, 5, 7, 9, 11};
  sub.radix = 2;

  SweepResult r;
  r.allreduce.assign(kN, 0.0);
  r.subreduce.assign(kN, 0.0);
  r.reduce_root.assign(2, 0.0);
  Bytes bcast_src = pattern_bytes(seed, kBcastBytes);

  for (int i = 0; i < kN; ++i) {
    eng.spawn([](Engine& e, fm2::Endpoint& ep, net::CollGroupSpec sp,
                 net::CollGroupSpec sb, int rank, std::uint64_t sd,
                 SweepResult& out, ByteSpan golden) -> Task<void> {
      // Stagger installs so some join traffic beats coll_create.
      co_await e.delay(sim::us(((sd + rank) % 5) * 40));
      co_await ep.coll_join(sp);
      co_await ep.coll_barrier(sp.id);
      double v = 1.0 + rank;
      co_await ep.coll_allreduce(sp.id, std::span<double>{&v, 1},
                                 fm2::Endpoint::CollRed::kSum);
      out.allreduce[rank] = v;
      if (rank % 2 == 1) {
        co_await e.delay(sim::us(((sd * (rank + 1)) % 7) * 30));
        co_await ep.coll_join(sb);
        double s = rank;
        co_await ep.coll_allreduce(sb.id, std::span<double>{&s, 1},
                                   fm2::Endpoint::CollRed::kSum);
        out.subreduce[rank] = s;
      }
      Bytes b(golden.size());
      if (rank == 0) std::copy(golden.begin(), golden.end(), b.begin());
      co_await ep.coll_bcast(sp.id, MutByteSpan{b});
      if (pattern_mismatch(sd, 0, ByteSpan{b}) != -1) out.bcast_ok = false;
      double red[2] = {double(rank), rank == 3 ? 100.0 : 0.0};
      co_await ep.coll_reduce(sp.id, std::span<double>{red, 2},
                              fm2::Endpoint::CollRed::kMax);
      if (rank == 0) {
        out.reduce_root[0] = red[0];
        out.reduce_root[1] = red[1];
      }
      co_await ep.coll_barrier(sp.id);
      ++out.completed_ranks;
    }(eng, *eps[i], spec, sub, i, seed, r, ByteSpan{bcast_src}));
  }
  cl.run();

  InvariantLedger led;
  led.check_engine(eng);
  led.check_cluster(cl);
  for (int i = 0; i < kN; ++i) {
    const auto& ns = cl.node(i).nic().stats();
    r.coll_rx += ns.coll_rx_packets;
    r.coll_combines += ns.coll_combines;
    r.coll_forwards += ns.coll_forwards;
    r.coll_completions += ns.coll_completions;
    r.coll_orphaned += ns.coll_orphaned;
    r.coll_stale += ns.coll_stale;
    r.retransmissions += ns.retransmissions;
    r.crc_dropped += ns.crc_dropped;
    r.seq_dropped += ns.seq_dropped;
    if (cl.node(i).nic().coll_pending() != 0) {
      led.violation("node " + std::to_string(i) + ": " +
                    std::to_string(cl.node(i).nic().coll_pending()) +
                    " collective items still queued after quiesce");
    }
  }
  r.events = eng.events_processed();
  r.fabric = cl.fabric_of(0).stats();
  r.inj = inj.stats();
  r.violations = led.violations();
  r.report = led.report();
  return r;
}

class CollFaultSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, net::CollClass>> {};

TEST_P(CollFaultSweep, OperationsCompleteExactlyUnderClassTargetedFaults) {
  const auto [seed, target] = GetParam();
  SweepResult r = run_sweep(seed, target);
  const std::string tag = std::string("seed ") + std::to_string(seed) +
                          " class " + class_name(target);
  EXPECT_TRUE(r.violations.empty())
      << tag << ":\n"
      << r.report << "reproduce with run_sweep(" << seed
      << ", net::CollClass::k" << class_name(target) << ")";
  EXPECT_EQ(r.completed_ranks, 12) << tag;
  // Exactly-once semantics: values exact on every rank, every time.
  for (int i = 0; i < 12; ++i) {
    EXPECT_DOUBLE_EQ(r.allreduce[i], 78.0) << tag << " rank " << i;
  }
  EXPECT_DOUBLE_EQ(r.reduce_root[0], 11.0) << tag;
  EXPECT_DOUBLE_EQ(r.reduce_root[1], 100.0) << tag;
  EXPECT_TRUE(r.bcast_ok) << tag;
  for (int i = 1; i < 12; i += 2) {
    EXPECT_DOUBLE_EQ(r.subreduce[i], 1 + 3 + 5 + 7 + 9 + 11)
        << tag << " rank " << i;
  }
  // join + 2 barriers + allreduce + bcast + reduce on all 12 NICs, plus
  // the subgroup's join + allreduce on the 6 odd ranks.
  EXPECT_EQ(r.coll_completions, 6u * 12u + 2u * 6u) << tag;
  EXPECT_GT(r.inj.packets_seen, 0u)
      << "classifier never matched class " << class_name(target);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CollFaultSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 21),
                       ::testing::Values(net::CollClass::kJoin,
                                         net::CollClass::kCombine,
                                         net::CollClass::kFanout,
                                         net::CollClass::kDone)),
    [](const auto& pinfo) {
      return std::string(class_name(std::get<1>(pinfo.param))) + "Seed" +
             std::to_string(std::get<0>(pinfo.param));
    });

TEST(CollFaultSweepSummary, EveryClassTookRealFaultsAndOrphansWerePark) {
  // Across the sweep every packet class must have absorbed injected
  // faults, and the staggered installs must have exercised the
  // orphan-parking path at least once.
  std::uint64_t orphaned = 0;
  for (net::CollClass target :
       {net::CollClass::kJoin, net::CollClass::kCombine,
        net::CollClass::kFanout, net::CollClass::kDone}) {
    std::uint64_t seen = 0, injected = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SweepResult r = run_sweep(seed, target);
      seen += r.inj.packets_seen;
      injected += r.inj.injected();
      orphaned += r.coll_orphaned;
    }
    EXPECT_GE(seen, 20u) << "class " << class_name(target);
    EXPECT_GT(injected, 0u)
        << "no faults ever hit class " << class_name(target);
  }
  EXPECT_GT(orphaned, 0u) << "orphan replay path never exercised";
}

TEST(CollFaultDeterminism, SameSeedAndClassReplayExactly) {
  const std::pair<std::uint64_t, net::CollClass> combos[] = {
      {1, net::CollClass::kJoin},
      {2, net::CollClass::kCombine},
      {3, net::CollClass::kFanout},
      {4, net::CollClass::kDone},
      {8, net::CollClass::kCombine},
  };
  for (const auto& [seed, target] : combos) {
    SweepResult a = run_sweep(seed, target);
    SweepResult b = run_sweep(seed, target);
    const std::string tag = std::string("seed ") + std::to_string(seed) +
                            " class " + class_name(target);
    EXPECT_EQ(a.events, b.events) << tag;
    EXPECT_EQ(a.fabric.packets, b.fabric.packets) << tag;
    EXPECT_EQ(a.fabric.dropped, b.fabric.dropped) << tag;
    EXPECT_EQ(a.fabric.corrupted, b.fabric.corrupted) << tag;
    EXPECT_EQ(a.fabric.duplicated, b.fabric.duplicated) << tag;
    EXPECT_EQ(a.coll_rx, b.coll_rx) << tag;
    EXPECT_EQ(a.coll_combines, b.coll_combines) << tag;
    EXPECT_EQ(a.coll_forwards, b.coll_forwards) << tag;
    EXPECT_EQ(a.coll_orphaned, b.coll_orphaned) << tag;
    EXPECT_EQ(a.coll_stale, b.coll_stale) << tag;
    EXPECT_EQ(a.retransmissions, b.retransmissions) << tag;
    EXPECT_EQ(a.crc_dropped, b.crc_dropped) << tag;
    EXPECT_EQ(a.seq_dropped, b.seq_dropped) << tag;
    EXPECT_EQ(a.inj.packets_seen, b.inj.packets_seen) << tag;
    EXPECT_EQ(a.inj.injected(), b.inj.injected()) << tag;
    EXPECT_EQ(a.allreduce, b.allreduce) << tag;
    EXPECT_EQ(a.subreduce, b.subreduce) << tag;
  }
}

}  // namespace
}  // namespace fmx::fault
