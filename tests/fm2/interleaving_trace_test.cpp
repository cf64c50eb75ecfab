// Trace-level proof of §4.1's interleaving claim: an FM 2.x handler starts
// consuming a multi-packet message while its later packets are still on
// the wire. The tracer makes the overlap directly observable — the first
// handler_run for a message precedes the last packet delivery — whereas
// under the FM 1.x whole-message discipline (whole_message_handlers=true)
// the handler only runs after every packet has arrived.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "tests/common/sim_fixture.hpp"
#include "trace/trace.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

constexpr std::size_t kBulk = 32 * 1024;  // many packets

struct Timeline {
  sim::Ps first_handler_run = 0;
  sim::Ps last_deliver = 0;
  int delivers = 0;
};

// Streams one bulk message and reads its timeline back out of the trace.
Timeline run_bulk(bool whole_message) {
  auto params = net::ppro_fm2_cluster(2);
  params.nic.host_ring_slots = 512;  // credits must cover the bulk message
  net::ParallelCluster cluster(params, 1);
  Engine& eng = cluster.shard_engine(0);
  fm2::Config cfg;
  cfg.credits_per_peer = 192;
  cfg.whole_message_handlers = whole_message;
  fm2::Endpoint tx(cluster.node(0), cluster.fabric_of(0), cfg);
  fm2::Endpoint rx(cluster.node(1), cluster.fabric_of(1), cfg);
  int got = 0;
  Bytes sink(kBulk);
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    co_await s.receive(sink.data(), s.msg_bytes());
    ++got;
  });
  cluster.fabric_of(0).tracer().enable();
  eng.spawn([](fm2::Endpoint& ep) -> Task<void> {
    Bytes m(kBulk);
    co_await ep.send(1, 0, ByteSpan{m});
  }(tx));
  eng.spawn([](fm2::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == 1; });
  }(rx, got));
  EXPECT_TRUE(test::run_to_exhaustion(cluster));
  EXPECT_EQ(got, 1);

  // The bulk message id, as both sides computed it independently.
  const trace::Tracer& t = cluster.fabric_of(0).tracer();
  std::uint64_t bulk_id = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const trace::Event& e = t.at(i);
    if (e.type == trace::EventType::kHandlerRun &&
        e.layer == trace::Layer::kFm2) {
      bulk_id = e.msg_id;
      break;
    }
  }
  EXPECT_NE(bulk_id, 0u);

  Timeline tl;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const trace::Event& e = t.at(i);
    if (e.msg_id != bulk_id) continue;
    if (e.type == trace::EventType::kHandlerRun &&
        tl.first_handler_run == 0) {
      tl.first_handler_run = e.t;
    }
    if (e.type == trace::EventType::kDeliver) {
      tl.last_deliver = e.t;
      ++tl.delivers;
    }
  }
  return tl;
}

TEST(InterleavingTrace, HandlerOverlapsArrival) {
  Timeline tl = run_bulk(/*whole_message=*/false);
  ASSERT_GT(tl.delivers, 1) << "bulk message must span multiple packets";
  ASSERT_NE(tl.first_handler_run, 0u);
  // The streaming handler started while later packets were still in
  // flight: extraction overlaps arrival, no head-of-line stall.
  EXPECT_LT(tl.first_handler_run, tl.last_deliver);
}

TEST(InterleavingTrace, WholeMessageModeStallsUntilLastPacket) {
  Timeline tl = run_bulk(/*whole_message=*/true);
  ASSERT_GT(tl.delivers, 1);
  ASSERT_NE(tl.first_handler_run, 0u);
  // FM 1.x discipline: the handler cannot start before the final packet
  // has been delivered — the stall the streaming interface removes.
  EXPECT_GE(tl.first_handler_run, tl.last_deliver);
}

}  // namespace
}  // namespace fmx
