// Wall-clock scaling of the sharded parallel engine on two 32-node FM 2.x
// workloads — dense all-to-all streaming and a sparse ring
// neighbor-exchange (each node streams to its right neighbor only) — vs
// the 1-shard cluster on the identical all-to-all workload.
// 32 hosts on 8 shards (4 per shard, aligned with the switch chain): with
// one host per shard there is no local work at all and every shard's event
// density is capped by a single simulated CPU, which measures the
// degenerate worst case rather than the regime sharding is for.
// Writes BENCH_parallel.json:
//   - serial_events_per_sec:  the 1-shard cluster (no cross-shard traffic)
//   - per-thread-count events/sec for ParallelCluster at 1/2/4/8 threads,
//     with a determinism digest that must be identical across all of them,
//     plus the two synchronization meters of the published-horizon
//     scheduler: events_per_window (events executed across the cluster per
//     window-equivalent of simulated progress — events * n_shards divided
//     by the count of non-empty per-shard advance quanta; the same units
//     as the retired barrier scheme's events-per-global-window, which sat
//     around 10) and barrier_crossings (condvar parks — the only
//     remaining mutex crossings)
//   - shard_tax_pct: how much the sharded model at 1 thread gives up vs
//     the 1-shard cluster (horizon publishes + cross-shard copies)
//   - allocs_per_event per thread count (steady state; per-shard pools and
//     the persistent worker pool keep this at exactly 0)
//   - ring: the same sweep on the neighbor-exchange workload, where the
//     per-pair lookahead matrix lets distant shards synchronize loosely
//   - cpus / cpu_model: speedup is only meaningful when the machine
//     actually has the cores; scripts/bench_check.py gates on this.
//
// Every wall-clock figure is the median of `repetitions` (default 5)
// measured waves per configuration; alloc counts are maxima across waves.
//
// Usage: parallel_scaling [msg_size] [msgs_per_pair] [out.json] [repetitions]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_util.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "trace/trace.hpp"

using namespace fmx;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kHosts = 32;
constexpr int kShards = 8;

struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

// All-to-all stream: every node sends `per_pair` messages to every peer;
// receivers poll until they saw them all. Endpoints only touch node-local
// state, so the workload runs unchanged at any shard count.
net::ParallelCluster::RunResult all_to_all(
    net::ParallelCluster& cl, int threads,
    std::vector<std::unique_ptr<fm2::Endpoint>>& eps, std::vector<int>& got,
    const Bytes& payload, int per_pair) {
  std::fill(got.begin(), got.end(), 0);
  for (int i = 0; i < kHosts; ++i) {
    cl.spawn_on(i, [](fm2::Endpoint& ep, ByteSpan msg, int self,
                      int n) -> sim::Task<void> {
      for (int m = 0; m < n; ++m) {
        for (int j = 0; j < kHosts; ++j) {
          if (j != self) co_await ep.send(j, 0, msg);
        }
      }
    }(*eps[i], ByteSpan{payload}, i, per_pair));
    cl.spawn_on(i, [](fm2::Endpoint& ep, int& g, int want) -> sim::Task<void> {
      co_await ep.poll_until([&g, want] { return g == want; });
    }(*eps[i], got[i], per_pair * (kHosts - 1)));
  }
  return cl.run(threads);
}

void make_handlers(std::vector<std::unique_ptr<fm2::Endpoint>>& eps,
                   std::vector<int>& got, std::vector<Digest>& rx,
                   std::vector<Bytes>& sink) {
  for (int i = 0; i < kHosts; ++i) {
    eps[i]->register_handler(
        0, [&got, &rx, &sink, i](fm2::RecvStream& s,
                                 int src) -> fm2::HandlerTask {
          const std::size_t n = s.msg_bytes();
          if (n > 0) co_await s.receive(sink[i].data(), n);
          rx[i].mix(static_cast<std::uint64_t>(src) ^ n);
          ++got[i];
        });
  }
}

// Sparse counterpart to all_to_all: every node streams `per_pair` messages
// to its right neighbor only, so each shard talks to two others. With the
// per-pair lookahead matrix, non-adjacent shards synchronize loosely; under
// a single global lookahead this workload paid the same tight windows as
// the dense one.
net::ParallelCluster::RunResult ring_exchange(
    net::ParallelCluster& cl, int threads,
    std::vector<std::unique_ptr<fm2::Endpoint>>& eps, std::vector<int>& got,
    const Bytes& payload, int per_pair) {
  std::fill(got.begin(), got.end(), 0);
  for (int i = 0; i < kHosts; ++i) {
    cl.spawn_on(i, [](fm2::Endpoint& ep, ByteSpan msg, int dst,
                      int n) -> sim::Task<void> {
      for (int m = 0; m < n; ++m) co_await ep.send(dst, 0, msg);
    }(*eps[i], ByteSpan{payload}, (i + 1) % kHosts, per_pair));
    cl.spawn_on(i, [](fm2::Endpoint& ep, int& g, int want) -> sim::Task<void> {
      co_await ep.poll_until([&g, want] { return g == want; });
    }(*eps[i], got[i], per_pair));
  }
  return cl.run(threads);
}

struct Measured {
  double wall_s = 0;  // median across repetitions
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;  // max across repetitions
  std::uint64_t digest = 0;
  std::uint64_t windows = 0;
  std::uint64_t barrier_crossings = 0;
};

Measured run_cluster(int shards, int threads, std::size_t msg_size,
                     int per_pair, int warmup_pairs, int reps, bool ring) {
  auto params = net::ppro_fm2_cluster(kHosts);
  // Deep host receive region (FM 2.x keeps flow-control state in host
  // memory precisely so the receive window can be large): the default 64
  // slots split across 31 peers would leave each flow 2 credits and every
  // sender idle for most of the round trip. 512 slots keep all flows
  // streaming, which is the regime the scaling bench is about.
  params.nic.host_ring_slots = 512;
  net::ParallelCluster cl(params, shards);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  for (int i = 0; i < kHosts; ++i) {
    eps.push_back(
        std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
  }
  std::vector<int> got(kHosts, 0);
  std::vector<Digest> rx(kHosts);
  std::vector<Bytes> sink(kHosts, Bytes(msg_size));
  make_handlers(eps, got, rx, sink);
  const Bytes payload = pattern_bytes(3, msg_size);

  Measured m;
  auto wave = [&](int pairs) {
    const auto r = ring ? ring_exchange(cl, threads, eps, got, payload, pairs)
                        : all_to_all(cl, threads, eps, got, payload, pairs);
    m.windows = r.windows;
    m.barrier_crossings = r.barrier_crossings;
    return r.events;
  };

  wave(warmup_pairs);  // warm pools and spawn the persistent worker pool
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    bench::alloc_hook_reset();
    const auto t0 = Clock::now();
    m.events = wave(per_pair);
    const auto t1 = Clock::now();
    m.allocs = std::max(m.allocs, bench::alloc_hook_count());
    walls.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  m.wall_s = bench::median(walls);

  // Window and park counts stay out of the digest: they are scheduling
  // meters, thread-timing-dependent by design under the published-horizon
  // scheduler. Only simulated results must be bit-identical.
  Digest d;
  d.mix(m.events);
  for (int i = 0; i < kHosts; ++i) {
    d.mix(rx[i].h);
    d.mix(eps[i]->stats().packets_sent);
    d.mix(eps[i]->stats().bytes_received);
  }
  m.digest = d.h;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t msg_size =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1024;
  const int per_pair = argc > 2 ? std::atoi(argv[2]) : 100;
  const char* out_path = argc > 3 ? argv[3] : "BENCH_parallel.json";
  const int reps = std::max(argc > 4 ? std::atoi(argv[4]) : 5, 1);
  const int warmup_pairs = std::max(1, per_pair / 8);
  const int thread_counts[] = {1, 2, 4, 8};
  const unsigned cpus = std::thread::hardware_concurrency();
  const sim::Ps lookahead =
      net::Fabric::cross_lookahead(net::ppro_fm2_cluster(kHosts).fabric);

  std::printf("parallel_scaling: %d-node all-to-all, %d msgs/pair x %zu B, "
              "%d reps (medians), %u cpu(s), lookahead %.0f ns\n",
              kHosts, per_pair, msg_size, reps, cpus, sim::to_ns(lookahead));

  // Baseline: the all-to-all on a 1-shard cluster.
  const Measured base =
      run_cluster(1, 1, msg_size, per_pair, warmup_pairs, reps, false);
  const double base_eps = base.events / base.wall_s;
  std::printf("  1-shard cluster    %9.3g events/sec (%llu events, %.3f s)\n",
              base_eps, static_cast<unsigned long long>(base.events),
              base.wall_s);

  // Events per cluster window-equivalent: windows counts non-empty
  // per-shard quanta, so one "every shard stepped once" stretch
  // contributes n_shards of them.
  auto epw = [](const Measured& m) {
    return static_cast<double>(m.events) * kShards / m.windows;
  };

  auto sweep = [&](const char* name, bool ring, Measured (&out)[4],
                   double (&eps)[4]) {
    bool ok = true;
    for (int k = 0; k < 4; ++k) {
      out[k] = run_cluster(kShards, thread_counts[k], msg_size, per_pair,
                           warmup_pairs, reps, ring);
      eps[k] = out[k].events / out[k].wall_s;
      if (out[k].digest != out[0].digest || out[k].events != out[0].events) {
        ok = false;
      }
      std::printf("  %s %d thread  %9.3g events/sec (digest %016llx, "
                  "%.4f allocs/event, %.0f events/window, %llu parks)\n",
                  name, thread_counts[k], eps[k],
                  static_cast<unsigned long long>(out[k].digest),
                  static_cast<double>(out[k].allocs) / out[k].events,
                  epw(out[k]),
                  static_cast<unsigned long long>(out[k].barrier_crossings));
    }
    return ok;
  };

  Measured par[4], rng[4];
  double par_eps[4], rng_eps[4];
  const bool a2a_ok = sweep("alltoall", false, par, par_eps);
  const bool ring_ok = sweep("ring    ", true, rng, rng_eps);
  const bool digest_ok = a2a_ok && ring_ok;

  const double speedup_4t = par_eps[2] / par_eps[0];
  const double ring_speedup_4t = rng_eps[2] / rng_eps[0];
  const double shard_tax_pct = 100.0 * (base_eps - par_eps[0]) / base_eps;
  std::printf("  speedup at 4 threads: %.2fx alltoall, %.2fx ring; shard "
              "tax %.1f%%; digests %s\n",
              speedup_4t, ring_speedup_4t, shard_tax_pct,
              digest_ok ? "identical" : "DIVERGED");

  bench::Artifact art;
  art.config.str("workload", "fm2_alltoall_stream")
      .count("n_hosts", kHosts)
      .count("msg_size", msg_size)
      .count("msgs_per_pair", per_pair)
      .count("repetitions", reps);
  art.config.obj("ring").str("workload", "fm2_ring_exchange");
  art.sim.count("lookahead_ps", lookahead).count("serial_events", base.events);
  art.wall.num("serial_events_per_sec", "%.1f", base_eps);
  auto rows = [&](bench::Json& sim, bench::Json& wall,
                  const Measured (&m)[4], const double (&eps)[4]) {
    for (int k = 0; k < 4; ++k) {
      sim.row("threads")
          .count("threads", thread_counts[k])
          .num("allocs_per_event", "%.6f",
               static_cast<double>(m[k].allocs) / m[k].events)
          .hex("digest", m[k].digest);
      wall.row("threads")
          .count("threads", thread_counts[k])
          .num("events_per_sec", "%.1f", eps[k])
          .count("windows", m[k].windows)
          .num("events_per_window", "%.2f", epw(m[k]))
          .count("barrier_crossings", m[k].barrier_crossings);
    }
  };
  rows(art.sim, art.wall, par, par_eps);
  art.wall.num("events_per_window", "%.2f", epw(par[0]))
      .num("speedup_4t_vs_1t", "%.3f", speedup_4t)
      .num("shard_tax_pct", "%.2f", shard_tax_pct);
  art.wall.obj("ring").num("speedup_4t_vs_1t", "%.3f", ring_speedup_4t);
  rows(art.sim.obj("ring"), art.wall.obj("ring"), rng, rng_eps);
  art.sim.flag("digest_ok", digest_ok);
  if (!art.write(out_path)) return 1;
  return digest_ok ? 0 : 1;
}
