// Wall-clock throughput of the simulation substrate itself, measured on the
// real workload every experiment runs: a full FM 2.x message stream between
// two endpoints (handler dispatch, packetisation, credits, NIC programs,
// link events — everything).
//
// Reports three numbers and writes them to BENCH_substrate.json:
//   - events_per_sec:     simulator events retired per wall-clock second
//   - sim_bytes_per_sec:  simulated payload bytes streamed per wall second
//     (how fast we chew through a bandwidth curve, the practical metric)
//   - allocs_per_event:   heap allocations per event in steady state,
//     counted by the operator-new hook in alloc_hook.cpp. The frame pool
//     and buffer pool exist to make this ~0; a warmup stream runs first so
//     one-time pool growth is excluded.
//
// Each configuration is measured over `repetitions` (default 5) interleaved
// untraced/traced stream pairs, and every wall-clock-derived figure is the
// MEDIAN across repetitions. A single repetition is noisy enough on a busy
// machine that the traced stream can come out faster than the untraced one
// (a negative "overhead"); interleaving plus medians makes the overhead
// estimate stable. Alloc counts are maxima across repetitions — a single
// steady-state allocation in any rep is a pool regression.
//
// Usage: substrate_throughput [msg_size] [n_msgs] [out.json] [repetitions]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_util.hpp"
#include "common/copy_stats.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

using namespace fmx;
using Clock = std::chrono::steady_clock;

namespace {

// Streams `n` messages of `size` bytes from tx to rx and runs the cluster
// to quiescence. Returns events retired during the run.
std::uint64_t stream(net::ParallelCluster& cluster, fm2::Endpoint& tx,
                     fm2::Endpoint& rx, int& got, ByteSpan payload, int n) {
  got = 0;
  cluster.spawn_on(
      tx.id(),
      [](fm2::Endpoint& ep, ByteSpan msg, int count) -> sim::Task<void> {
        for (int i = 0; i < count; ++i) co_await ep.send(1, 0, msg);
      }(tx, payload, n));
  cluster.spawn_on(
      rx.id(), [](fm2::Endpoint& ep, int& g, int count) -> sim::Task<void> {
        co_await ep.poll_until([&] { return g == count; });
      }(rx, got, n));
  return cluster.run().events;
}

struct Rep {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  double sim_s = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t msg_size = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                        : 4096;
  const int n_msgs = argc > 2 ? std::atoi(argv[2]) : 2000;
  const char* out_path = argc > 3 ? argv[3] : "BENCH_substrate.json";
  const int reps = std::max(argc > 4 ? std::atoi(argv[4]) : 5, 1);
  const int warmup_msgs = 200;

  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  sim::Engine& eng = cluster.shard_engine(0);
  net::Fabric& fabric = cluster.fabric_of(0);
  fm2::Endpoint tx(cluster.node(0), fabric);
  fm2::Endpoint rx(cluster.node(1), fabric);
  int got = 0;
  Bytes sink(msg_size);
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    if (s.msg_bytes() > 0) co_await s.receive(sink.data(), s.msg_bytes());
    ++got;
  });
  Bytes msg = pattern_bytes(3, msg_size);

  // Warmup: grow the event queue, frame pool, buffer pool, channel rings and
  // the trace ring to their steady-state footprint before anything is
  // measured. enable() preallocates chunk storage once; later enables reuse
  // it.
  stream(cluster, tx, rx, got, ByteSpan{msg}, warmup_msgs);
  fabric.tracer().enable();
  stream(cluster, tx, rx, got, ByteSpan{msg}, warmup_msgs);
  fabric.tracer().disable();

  // Physical vs modeled copies over one measured stream (the workload is
  // deterministic, so rep 0 speaks for all reps). real_* is what the
  // simulator process actually memcpy'd; modeled_* is what the cost model
  // charged the simulated hosts. The zero-copy data plane means the only
  // real copies left are the modeled endpoint ones — per-hop real copies
  // (retention, duplication, staging) must be zero in a 1-shard run.
  CopyStats::instance().reset();
  const std::uint64_t mod_copies0 =
      tx.host().ledger().copies() + rx.host().ledger().copies();
  const std::uint64_t mod_bytes0 =
      tx.host().ledger().copied_bytes() + rx.host().ledger().copied_bytes();
  CopyStats::Snapshot real{};
  std::uint64_t modeled_copies = 0, modeled_copy_bytes = 0;

  std::vector<Rep> plain(reps), traced(reps);
  for (int r = 0; r < reps; ++r) {
    bench::alloc_hook_reset();
    const sim::Ps sim_start = eng.now();
    const auto t0 = Clock::now();
    plain[r].events = stream(cluster, tx, rx, got, ByteSpan{msg}, n_msgs);
    const auto t1 = Clock::now();
    if (r == 0) {
      real = CopyStats::instance().snapshot();
      modeled_copies = tx.host().ledger().copies() +
                       rx.host().ledger().copies() - mod_copies0;
      modeled_copy_bytes = tx.host().ledger().copied_bytes() +
                           rx.host().ledger().copied_bytes() - mod_bytes0;
    }
    plain[r].allocs = bench::alloc_hook_count();
    plain[r].alloc_bytes = bench::alloc_hook_bytes();
    plain[r].wall_s = std::chrono::duration<double>(t1 - t0).count();
    plain[r].sim_s = sim::to_seconds(eng.now() - sim_start);

    fabric.tracer().enable();
    bench::alloc_hook_reset();
    const auto t2 = Clock::now();
    traced[r].events = stream(cluster, tx, rx, got, ByteSpan{msg}, n_msgs);
    const auto t3 = Clock::now();
    traced[r].allocs = bench::alloc_hook_count();
    traced[r].wall_s = std::chrono::duration<double>(t3 - t2).count();
    fabric.tracer().disable();
  }

  std::vector<double> eps, beps, teps;
  std::uint64_t max_allocs = 0, max_alloc_bytes = 0, max_traced_allocs = 0;
  for (int r = 0; r < reps; ++r) {
    eps.push_back(plain[r].events / plain[r].wall_s);
    beps.push_back(static_cast<double>(msg_size) * n_msgs / plain[r].wall_s);
    teps.push_back(traced[r].events / traced[r].wall_s);
    max_allocs = std::max(max_allocs, plain[r].allocs);
    max_alloc_bytes = std::max(max_alloc_bytes, plain[r].alloc_bytes);
    max_traced_allocs = std::max(max_traced_allocs, traced[r].allocs);
  }
  const double events_per_sec = bench::median(eps);
  const double sim_bytes_per_sec = bench::median(beps);
  const double traced_events_per_sec = bench::median(teps);
  const double allocs_per_event =
      static_cast<double>(max_allocs) / plain[0].events;
  const double traced_allocs_per_event =
      static_cast<double>(max_traced_allocs) / traced[0].events;
  const double trace_overhead_pct =
      100.0 * (events_per_sec - traced_events_per_sec) / events_per_sec;

  std::printf("FM 2.x stream: %d msgs x %zu B, %llu events, %d reps "
              "(medians)\n", n_msgs, msg_size,
              static_cast<unsigned long long>(plain[0].events), reps);
  std::printf("  wall time          %.3f s (median rep)\n",
              plain[0].events / events_per_sec);
  std::printf("  simulated time     %.6f s\n", plain[0].sim_s);
  std::printf("  events/sec (wall)  %.3g\n", events_per_sec);
  std::printf("  sim bytes/sec      %.3g (wall-clock rate of simulated"
              " payload)\n", sim_bytes_per_sec);
  std::printf("  allocs/event       %.6f (max across reps: %llu allocs, "
              "%llu bytes)\n", allocs_per_event,
              static_cast<unsigned long long>(max_allocs),
              static_cast<unsigned long long>(max_alloc_bytes));
  std::printf("  tracing on:        %.3g events/sec, %.6f allocs/event, "
              "%.1f%% overhead\n", traced_events_per_sec,
              traced_allocs_per_event, trace_overhead_pct);
  std::printf("  real copies        %llu endpoint (%llu B), %llu per-hop "
              "(%llu B); modeled %llu (%llu B)\n",
              static_cast<unsigned long long>(real.endpoint_copies),
              static_cast<unsigned long long>(real.endpoint_bytes),
              static_cast<unsigned long long>(real.hop_copies),
              static_cast<unsigned long long>(real.hop_bytes),
              static_cast<unsigned long long>(modeled_copies),
              static_cast<unsigned long long>(modeled_copy_bytes));

  bench::Artifact art;
  art.config.str("workload", "fm2_ping_stream")
      .count("msg_size", msg_size)
      .count("n_msgs", n_msgs)
      .count("repetitions", reps)
      .count("threads", 1);
  art.sim.count("events", plain[0].events)
      .num("sim_seconds", "%.9f", plain[0].sim_s)
      .count("real_copies", real.endpoint_copies)
      .count("real_copy_bytes", real.endpoint_bytes)
      .count("real_hop_copies", real.hop_copies)
      .count("real_hop_copy_bytes", real.hop_bytes)
      .count("modeled_copies", modeled_copies)
      .count("modeled_copy_bytes", modeled_copy_bytes);
  art.wall.num("wall_seconds", "%.6f", plain[0].events / events_per_sec)
      .num("events_per_sec", "%.1f", events_per_sec)
      .num("sim_bytes_per_sec", "%.1f", sim_bytes_per_sec)
      .count("allocs", max_allocs)
      .count("alloc_bytes", max_alloc_bytes)
      .num("allocs_per_event", "%.6f", allocs_per_event)
      .num("traced_events_per_sec", "%.1f", traced_events_per_sec)
      .num("traced_allocs_per_event", "%.6f", traced_allocs_per_event)
      .num("trace_overhead_pct", "%.2f", trace_overhead_pct);
  return art.write(out_path) ? 0 : 1;
}
