// Golden-trace determinism tests for the cross-layer tracer. A fixed
// MPI-FM2 exchange is traced end to end and reduced to the tracer's
// order-sensitive FNV-1a digest. The digest must be identical run to run —
// with and without a seeded fault plan — because the simulation is
// deterministic and the hooks are synchronous (no events of their own).
//
// The happens-before test checks the pipeline invariant the event types
// encode: for every message, send_enqueue precedes the (optional) fetch
// DMA, which precedes the wire hop, which precedes delivery, which
// precedes the first handler run, which precedes message completion.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fault/injector.hpp"
#include "fm2/fm2.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "tests/common/sim_fixture.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

constexpr std::size_t kSizes[] = {64, 512, 2048, 6000};
constexpr int kMsgs = 8;

struct RunResult {
  std::uint64_t digest = 0;
  std::vector<trace::Event> events;
  std::uint64_t injected_drops = 0;
  std::uint64_t trace_dropped = 0;  // ring evictions (should be none here)
};

RunResult run_exchange(bool faulty) {
  auto params = net::ppro_fm2_cluster(2);
  params.nic.reliable_link = true;  // losses recovered by go-back-N
  net::ParallelCluster cluster(params, 1);
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<fault::PlanInjector>> injectors;
  if (faulty) {
    injectors = fault::arm(cluster, fault::FaultPlan::lossy(0.15, /*seed=*/23));
  }
  fm2::Endpoint ep0(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint ep1(cluster.node(1), cluster.fabric_of(1));
  mpi::MpiFm2 mpi0(ep0), mpi1(ep1);
  cluster.fabric_of(0).tracer().enable();

  eng.spawn([](mpi::Comm& c) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      Bytes m = pattern_bytes(i, kSizes[i % 4]);
      co_await c.send(ByteSpan{m}, 1, 5);
    }
  }(mpi0));
  eng.spawn([](mpi::Comm& c) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      Bytes buf(kSizes[i % 4]);
      co_await c.recv(MutByteSpan{buf}, 0, 5);
    }
  }(mpi1));
  EXPECT_TRUE(test::run_to_exhaustion(cluster));

  RunResult r;
  const trace::Tracer& t = cluster.fabric_of(0).tracer();
  r.digest = trace::trace_digest(t);
  r.events = t.events();
  r.trace_dropped = t.dropped_events();
  for (const auto& inj : injectors) r.injected_drops += inj->stats().drops;
  return r;
}

TEST(GoldenTrace, DigestStableAcrossRuns) {
  RunResult a = run_exchange(false);
  RunResult b = run_exchange(false);
  ASSERT_GT(a.events.size(), 0u);
  EXPECT_EQ(a.trace_dropped, 0u);
  EXPECT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.digest, b.digest);
}

TEST(GoldenTrace, DigestStableUnderSeededFaults) {
  RunResult a = run_exchange(true);
  RunResult b = run_exchange(true);
  // The plan must actually bite, and recovery must be visible in the trace.
  ASSERT_GT(a.injected_drops, 0u);
  bool saw_drop = false, saw_retransmit = false;
  for (const trace::Event& e : a.events) {
    saw_drop |= e.type == trace::EventType::kDrop;
    saw_retransmit |= e.type == trace::EventType::kRetransmit;
  }
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_retransmit);
  EXPECT_EQ(a.digest, b.digest);
  // And the faulty timeline is a different timeline.
  EXPECT_NE(a.digest, run_exchange(false).digest);
}

TEST(GoldenTrace, HappensBeforePerMessage) {
  RunResult r = run_exchange(false);

  // First timestamp of each event type per FM2-level message id.
  struct Firsts {
    std::map<trace::EventType, sim::Ps> first;
    void see(const trace::Event& e) {
      auto [it, inserted] = first.try_emplace(e.type, e.t);
      if (!inserted && e.t < it->second) it->second = e.t;
    }
  };
  std::map<std::uint64_t, Firsts> msgs;
  for (const trace::Event& e : r.events) {
    if (e.msg_id != 0) msgs[e.msg_id].see(e);
  }

  int checked = 0;
  for (const auto& [id, f] : msgs) {
    using ET = trace::EventType;
    if (!f.first.count(ET::kSendEnqueue) || !f.first.count(ET::kMsgDone)) {
      continue;  // control traffic (credits, acks) has no send_enqueue
    }
    ++checked;
    ASSERT_TRUE(f.first.count(ET::kWireHop)) << "msg " << std::hex << id;
    ASSERT_TRUE(f.first.count(ET::kDeliver)) << "msg " << std::hex << id;
    ASSERT_TRUE(f.first.count(ET::kHandlerRun)) << "msg " << std::hex << id;
    const sim::Ps se = f.first.at(ET::kSendEnqueue);
    const sim::Ps wh = f.first.at(ET::kWireHop);
    const sim::Ps dl = f.first.at(ET::kDeliver);
    const sim::Ps hr = f.first.at(ET::kHandlerRun);
    const sim::Ps md = f.first.at(ET::kMsgDone);
    EXPECT_LT(se, wh) << "msg " << std::hex << id;
    if (f.first.count(ET::kDmaStart)) {
      EXPECT_GE(f.first.at(ET::kDmaStart), se) << "msg " << std::hex << id;
      EXPECT_LT(f.first.at(ET::kDmaStart), wh) << "msg " << std::hex << id;
    }
    EXPECT_LT(wh, dl) << "msg " << std::hex << id;
    EXPECT_LE(dl, hr) << "msg " << std::hex << id;
    EXPECT_LE(hr, md) << "msg " << std::hex << id;
  }
  EXPECT_GE(checked, kMsgs);  // every MPI payload message was validated
}

}  // namespace
}  // namespace fmx
