// Zero-overhead guarantee for the tracer, enforced with the same
// operator-new hook the substrate benchmark uses (linked into this test
// binary only — see tests/CMakeLists.txt):
//   - tracing DISABLED: a warmed-up FM 2.x stream performs zero heap
//     allocations, i.e. the disabled record() branch costs nothing the
//     allocator can see;
//   - tracing ENABLED: still zero steady-state allocations, because the
//     chunked event ring is preallocated at enable() and full chunks are
//     recycled, never grown.
#include <gtest/gtest.h>

#include <cstdint>

#include "bench/common/alloc_hook.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "tests/common/sim_fixture.hpp"
#include "trace/trace.hpp"

namespace fmx {
namespace {

using sim::Task;

constexpr std::size_t kMsgSize = 4096;

// Streams `n` messages tx -> rx and runs the cluster to quiescence.
void stream(net::ParallelCluster& cluster, fm2::Endpoint& tx,
            fm2::Endpoint& rx, int& got, Bytes& msg, int n) {
  got = 0;
  cluster.spawn_on(tx.id(), [](fm2::Endpoint& ep, ByteSpan m,
                               int count) -> Task<void> {
    for (int i = 0; i < count; ++i) co_await ep.send(1, 0, m);
  }(tx, ByteSpan{msg}, n));
  cluster.spawn_on(rx.id(), [](fm2::Endpoint& ep, int& g,
                               int count) -> Task<void> {
    co_await ep.poll_until([&] { return g == count; });
  }(rx, got, n));
  ASSERT_TRUE(test::run_to_exhaustion(cluster));
}

TEST(TraceOverhead, SteadyStateAllocationFree) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  fm2::Endpoint tx(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint rx(cluster.node(1), cluster.fabric_of(1));
  int got = 0;
  Bytes sink(kMsgSize);
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    co_await s.receive(sink.data(), s.msg_bytes());
    ++got;
  });
  Bytes msg = pattern_bytes(7, kMsgSize);

  // Warm every pool (event queue, frame pool, buffer pool, rings).
  stream(cluster, tx, rx, got, msg, 50);

  // Tracing off: the gate is a single branch; zero allocations.
  bench::alloc_hook_reset();
  stream(cluster, tx, rx, got, msg, 200);
  EXPECT_EQ(bench::alloc_hook_count(), 0u)
      << "disabled tracer allocated on the hot path";

  // Tracing on: enable() preallocates the ring; the steady state must not
  // allocate either, even when the ring wraps and recycles chunks.
  trace::Tracer& tracer = cluster.fabric_of(0).tracer();
  tracer.enable(/*capacity=*/8192);  // small: forces wraparound recycling
  stream(cluster, tx, rx, got, msg, 50);  // warm the traced path
  bench::alloc_hook_reset();
  stream(cluster, tx, rx, got, msg, 200);
  EXPECT_EQ(bench::alloc_hook_count(), 0u)
      << "enabled tracer allocated in steady state; the ring must be "
         "preallocated at enable() and recycled on wrap";
  EXPECT_GT(tracer.size(), 0u);
  EXPECT_GT(tracer.dropped_events(), 0u);  // proves the ring wrapped
}

}  // namespace
}  // namespace fmx
