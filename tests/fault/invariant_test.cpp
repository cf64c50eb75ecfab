// Unit tests for the invariant checker and the fault-plan interpreter
// themselves: the ledger must flag each class of protocol violation with a
// readable message (and stay silent on clean runs), and PlanInjector must
// be a pure function of (plan, seed, consultation order).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "sim/sync.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx::fault {
namespace {

using sim::Engine;
using sim::Task;

bool any_violation_contains(const InvariantLedger& led,
                            const std::string& needle) {
  for (const std::string& v : led.violations()) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(InvariantLedger, CleanStreamPasses) {
  InvariantLedger led;
  for (int i = 0; i < 5; ++i) {
    Bytes m = pattern_bytes(i, 100 + i);
    led.note_sent(0, 1, ByteSpan{m});
    led.note_delivered(0, 1, ByteSpan{m});
  }
  led.check_streams();
  EXPECT_TRUE(led.ok()) << led.report();
  EXPECT_EQ(led.messages_sent(), 5u);
  EXPECT_EQ(led.messages_delivered(), 5u);
}

TEST(InvariantLedger, LostMessageFlaggedOnce) {
  // Deliver #0 and #2 but never #1: the #2 delivery is flagged as
  // out-of-order/lost, and the resync means check_streams stays quiet.
  InvariantLedger led;
  Bytes m0 = pattern_bytes(10, 64), m1 = pattern_bytes(11, 64),
        m2 = pattern_bytes(12, 64);
  led.note_sent(0, 1, ByteSpan{m0});
  led.note_sent(0, 1, ByteSpan{m1});
  led.note_sent(0, 1, ByteSpan{m2});
  led.note_delivered(0, 1, ByteSpan{m0});
  led.note_delivered(0, 1, ByteSpan{m2});
  led.check_streams();
  EXPECT_FALSE(led.ok());
  EXPECT_EQ(led.violations().size(), 1u) << led.report();
  EXPECT_TRUE(any_violation_contains(led, "out-of-order or lost"))
      << led.report();
}

TEST(InvariantLedger, UndeliveredMessagesFlagged) {
  InvariantLedger led;
  Bytes m = pattern_bytes(20, 256);
  led.note_sent(0, 1, ByteSpan{m});
  led.note_sent(0, 1, ByteSpan{m});
  led.check_streams();
  EXPECT_FALSE(led.ok());
  EXPECT_TRUE(any_violation_contains(led, "never delivered")) << led.report();
}

TEST(InvariantLedger, DuplicateDeliveryFlagged) {
  InvariantLedger led;
  Bytes m = pattern_bytes(30, 128);
  led.note_sent(0, 1, ByteSpan{m});
  led.note_delivered(0, 1, ByteSpan{m});
  led.note_delivered(0, 1, ByteSpan{m});
  EXPECT_FALSE(led.ok());
  EXPECT_TRUE(any_violation_contains(led, "duplicate or phantom"))
      << led.report();
}

TEST(InvariantLedger, CorruptedPayloadFlagged) {
  InvariantLedger led;
  Bytes m = pattern_bytes(40, 128);
  led.note_sent(0, 1, ByteSpan{m});
  Bytes bad = m;
  bad[17] ^= std::byte{0x20};  // same size, different bytes
  led.note_delivered(0, 1, ByteSpan{bad});
  EXPECT_FALSE(led.ok());
  EXPECT_TRUE(any_violation_contains(led, "corrupted in transit"))
      << led.report();
}

TEST(InvariantLedger, StreamsAreIndependent) {
  // A violation on 0->1 must not contaminate 1->0 bookkeeping.
  InvariantLedger led;
  Bytes a = pattern_bytes(50, 64), b = pattern_bytes(51, 64);
  led.note_sent(0, 1, ByteSpan{a});
  led.note_sent(1, 0, ByteSpan{b});
  led.note_delivered(1, 0, ByteSpan{b});
  led.check_streams();
  EXPECT_EQ(led.violations().size(), 1u) << led.report();
  EXPECT_TRUE(any_violation_contains(led, "stream 0->1")) << led.report();
}

TEST(InvariantLedger, DeadlockDetectedViaEngine) {
  Engine eng;
  sim::CondVar never(eng);
  eng.spawn([](sim::CondVar& cv) -> Task<void> { co_await cv.wait(); }(never));
  eng.run();
  InvariantLedger led;
  led.check_engine(eng);
  EXPECT_FALSE(led.ok());
  EXPECT_TRUE(any_violation_contains(led, "deadlock")) << led.report();
  // Unstick the waiter so the coroutine frame is reclaimed cleanly.
  never.notify_all();
  eng.run();
}

TEST(InvariantLedger, ReportListsEveryViolation) {
  InvariantLedger led;
  EXPECT_EQ(led.report(), "all invariants hold");
  led.violation("first");
  led.violation("second");
  const std::string rep = led.report();
  EXPECT_NE(rep.find("2 invariant violation(s)"), std::string::npos) << rep;
  EXPECT_NE(rep.find("first"), std::string::npos);
  EXPECT_NE(rep.find("second"), std::string::npos);
}

// --- PlanInjector ----------------------------------------------------------

struct Decision {
  bool drop, dup, corrupt;
  sim::Ps delay;
  bool operator==(const Decision&) const = default;
};

std::vector<Decision> consult(PlanInjector& inj, int n) {
  std::vector<Decision> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    net::WirePacket pkt = net::WirePacket::make(
        0, 1,
        BufferRef::copy_of(
            ByteSpan{pattern_bytes(static_cast<unsigned>(i), 64)}));
    net::WireFault f = inj.on_deliver(pkt);
    out.push_back({f.drop, f.duplicate, f.corrupt, f.extra_delay});
  }
  return out;
}

TEST(PlanInjector, SameSeedSameDecisionSequence) {
  Engine eng;
  PlanInjector a(eng, FaultPlan::chaos(99));
  PlanInjector b(eng, FaultPlan::chaos(99));
  EXPECT_EQ(consult(a, 500), consult(b, 500));
  EXPECT_EQ(a.stats().injected(), b.stats().injected());
  EXPECT_GT(a.stats().injected(), 0u);  // chaos at 2% over 500 draws fires
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.rx_pacing(0), b.rx_pacing(0)) << "call " << i;
  }
}

TEST(PlanInjector, DifferentSeedsDifferentDecisions) {
  Engine eng;
  PlanInjector a(eng, FaultPlan::chaos(1));
  PlanInjector b(eng, FaultPlan::chaos(2));
  EXPECT_NE(consult(a, 500), consult(b, 500));
}

TEST(PlanInjector, CleanPlanInjectsNothing) {
  Engine eng;
  PlanInjector inj(eng, FaultPlan::clean(7));
  for (const Decision& d : consult(inj, 100)) {
    EXPECT_EQ(d, (Decision{false, false, false, 0}));
  }
  EXPECT_EQ(inj.stats().injected(), 0u);
  EXPECT_EQ(inj.stats().packets_seen, 100u);
  EXPECT_EQ(inj.bus_stall(4096), 0);
  EXPECT_EQ(inj.tx_pacing(0), 0);
  EXPECT_EQ(inj.rx_pacing(0), 0);
}

TEST(PlanInjector, LinkOverrideMatchesDirectedPair) {
  Engine eng;
  FaultPlan plan = FaultPlan::clean(5);
  LinkOverride kill;
  kill.src = 0;
  kill.dst = 1;
  kill.rates.drop = 1.0;
  plan.links.push_back(kill);
  PlanInjector inj(eng, plan);
  const BufferRef payload = BufferRef::copy_of(ByteSpan{Bytes(8)});
  net::WirePacket fwd = net::WirePacket::make(0, 1, payload);
  net::WirePacket rev = net::WirePacket::make(1, 0, payload);
  EXPECT_TRUE(inj.on_deliver(fwd).drop);
  EXPECT_FALSE(inj.on_deliver(rev).drop);
}

TEST(PlanInjector, WildcardOverrideMatchesAnyEndpoint) {
  Engine eng;
  FaultPlan plan = FaultPlan::clean(5);
  LinkOverride all_into_2;
  all_into_2.dst = 2;  // src stays -1 = any
  all_into_2.rates.drop = 1.0;
  plan.links.push_back(all_into_2);
  PlanInjector inj(eng, plan);
  const BufferRef payload = BufferRef::copy_of(ByteSpan{Bytes(8)});
  EXPECT_TRUE(inj.on_deliver(net::WirePacket::make(0, 2, payload)).drop);
  EXPECT_TRUE(inj.on_deliver(net::WirePacket::make(1, 2, payload)).drop);
  EXPECT_FALSE(inj.on_deliver(net::WirePacket::make(2, 0, payload)).drop);
}

TEST(PlanInjector, EmptyPayloadIsNeverCorrupted) {
  // Ack-only packets carry no payload; a corrupt draw must skip them
  // rather than index into an empty buffer.
  Engine eng;
  FaultPlan plan = FaultPlan::clean(9);
  plan.wire.corrupt = 1.0;
  PlanInjector inj(eng, plan);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(
        inj.on_deliver(net::WirePacket::make(0, 1, BufferRef{})).corrupt);
  }
  EXPECT_EQ(inj.stats().corruptions, 0u);
}

TEST(PlanInjector, BusStallOnlyInsideTheWindow) {
  Engine eng;
  FaultPlan plan = FaultPlan::clean(3);
  plan.bus = {sim::us(100), sim::us(50), sim::us(5)};
  PlanInjector inj(eng, plan);
  EXPECT_EQ(inj.bus_stall(1024), sim::us(5));  // t=0: inside the window
  sim::Ps outside = -1, inside = -1;
  eng.spawn([](Engine& en, PlanInjector& in, sim::Ps& out,
               sim::Ps& in_again) -> Task<void> {
    co_await en.delay(sim::us(60));  // 60 % 100 >= 50: clean half
    out = in.bus_stall(1024);
    co_await en.delay(sim::us(50));  // t=110: 110 % 100 < 50 again
    in_again = in.bus_stall(1024);
  }(eng, inj, outside, inside));
  ASSERT_TRUE(test::run_to_exhaustion(eng));
  EXPECT_EQ(outside, 0);
  EXPECT_EQ(inside, sim::us(5));
  EXPECT_EQ(inj.stats().bus_stalls, 2u);
}

}  // namespace
}  // namespace fmx::fault
