// Datacenter-scale fabric bench: a k-ary fat-tree under an open-loop
// heavy-tailed traffic wave, reporting per-layer latency quantiles and the
// two invariants the parallel fabric promises at scale:
//
//   - determinism: the same schedule replayed at 1/2/4 worker threads must
//     produce bit-identical completion digests (and therefore identical
//     p50/p99/p999);
//   - zero steady-state allocations: after a warmup wave of the same
//     schedule has sized every pool (buffer pool, coroutine frames, engine
//     heaps, SPSC spill buffers), the measured wave performs no heap
//     allocation at all.
//
// The default configuration is a radix-16, 1:1 fat tree — 1024 hosts, 320
// switches, 128 ECMP-balanced core paths per cross-pod pair — with 128
// flows per host arriving at 2e7 flows/s/host (the whole schedule lands in
// ~6.4 us, far faster than the fabric can drain it, so effectively every
// flow is concurrently in flight: open-loop overload is what puts mass in
// the tails). Flow sizes are bounded-Pareto mice-and-elephants.
//
// Writes BENCH_fabric.json (`scripts/bench_check.py fabric` gates a
// reduced run): per-thread-count events/sec + allocs/event + digest,
// plus per-layer p50/p99/p999 from the 1-thread run.
//
// Usage: fabric_scale [--hosts N] [--oversub O] [--flows-per-host F]
//                     [--rate R] [--shards S] [--threads 1,2,4]
//                     [--pattern uniform|permutation|incast|hotspot]
//                     [--out path]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_util.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "myrinet/topo.hpp"
#include "workload/traffic_engine.hpp"

using namespace fmx;
using Clock = std::chrono::steady_clock;

namespace {

struct Args {
  int hosts = 1024;
  int oversub = 1;
  int flows_per_host = 128;
  double rate = 2e7;
  int shards = 8;
  std::vector<int> threads = {1, 2, 4};
  workload::TrafficPattern pattern = workload::TrafficPattern::kUniform;
  const char* out = "BENCH_fabric.json";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v;
    if (!std::strcmp(argv[i], "--hosts") && (v = next())) {
      a.hosts = std::atoi(v);
    } else if (!std::strcmp(argv[i], "--oversub") && (v = next())) {
      a.oversub = std::atoi(v);
    } else if (!std::strcmp(argv[i], "--flows-per-host") && (v = next())) {
      a.flows_per_host = std::atoi(v);
    } else if (!std::strcmp(argv[i], "--rate") && (v = next())) {
      a.rate = std::atof(v);
    } else if (!std::strcmp(argv[i], "--shards") && (v = next())) {
      a.shards = std::atoi(v);
    } else if (!std::strcmp(argv[i], "--out") && (v = next())) {
      a.out = v;
    } else if (!std::strcmp(argv[i], "--threads") && (v = next())) {
      a.threads.clear();
      for (const char* p = v; *p != '\0';) {
        a.threads.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (!std::strcmp(argv[i], "--pattern") && (v = next())) {
      if (!std::strcmp(v, "uniform")) {
        a.pattern = workload::TrafficPattern::kUniform;
      } else if (!std::strcmp(v, "permutation")) {
        a.pattern = workload::TrafficPattern::kPermutation;
      } else if (!std::strcmp(v, "incast")) {
        a.pattern = workload::TrafficPattern::kIncast;
      } else if (!std::strcmp(v, "hotspot")) {
        a.pattern = workload::TrafficPattern::kHotspot;
      } else {
        std::fprintf(stderr, "unknown pattern %s\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

struct Measured {
  workload::WaveResult wave;
  double wall_s = 0;
  std::uint64_t allocs = 0;
};

Measured run_at(const Args& a, const workload::Schedule& sched,
                const workload::TrafficConfig&, int threads) {
  auto params = net::fat_tree_cluster(a.hosts, /*radix=*/0, a.oversub);
  // The wave is a deliberate overload: keep every in-flight buffer and
  // ring slot retained across the warmup->measured boundary so the
  // measured wave never touches the allocator.
  params.fabric.pool_retain_bytes_per_class = std::size_t{256} << 20;
  params.nic.host_ring_slots = 256;
  net::ParallelCluster cl(params, a.shards);
  for (int s = 0; s < cl.n_shards(); ++s) {
    cl.shard_engine(s).reserve_events(std::size_t{1} << 16);
  }
  workload::TrafficEngine te(cl);

  // Warmup at full scale: the first wave sizes every pool (buffers,
  // frames, engine heaps, rings); the second catches growth the first
  // wave's own warm-up skew still induced (a pool that only reaches its
  // steady-state high-water once its downstream consumer is warm).
  te.run_wave(sched, threads);
  te.run_wave(sched, threads);
  te.run_wave(sched, threads);

  Measured m;
  bench::alloc_hook_reset();
  const auto t0 = Clock::now();
  te.spawn_wave(sched);
  auto run = cl.run(threads);
  const auto t1 = Clock::now();
  m.allocs = bench::alloc_hook_count();
  m.wave = te.collect_wave(sched, run);
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) return 2;

  workload::TrafficConfig cfg;
  cfg.pattern = a.pattern;
  cfg.sizes = workload::SizeDistribution::bounded_pareto(1.2, 32, 2048);
  cfg.flow_rate_per_host = a.rate;
  cfg.flows_per_host = a.flows_per_host;
  cfg.seed = 42;
  const workload::Schedule sched = workload::make_schedule(cfg, a.hosts);

  const auto params = net::fat_tree_cluster(a.hosts, 0, a.oversub);
  const net::Topo topo(params.fabric, a.hosts);
  std::printf(
      "fabric_scale: %d-host fat-tree (radix %d, %d:1, %d switches, "
      "%d ECMP cross-pod paths), %s pattern, %llu flows (%s sizes, "
      "mean %.0f B) at %.2g flows/s/host, %d shards\n",
      a.hosts, params.fabric.fat_tree_radix, a.oversub, topo.n_switches(),
      topo.ecmp_paths(0, a.hosts - 1), workload::to_string(a.pattern),
      static_cast<unsigned long long>(sched.total_flows), cfg.sizes.name().data(),
      cfg.sizes.mean(), a.rate, a.shards);

  std::vector<Measured> runs;
  bool digest_ok = true;
  for (int t : a.threads) {
    Measured m = run_at(a, sched, cfg, t);
    if (!runs.empty() && m.wave.digest != runs.front().wave.digest) {
      digest_ok = false;
    }
    if (m.wave.completed != sched.total_flows || m.wave.pending_roots != 0) {
      digest_ok = false;  // an incomplete wave is never acceptable
    }
    std::printf(
        "  %d thread(s)  %9.3g events/sec  (%llu events, %.3f s, "
        "%.6f allocs/event, digest %016llx, peak %llu flows in flight)\n",
        t, m.wave.events / m.wall_s,
        static_cast<unsigned long long>(m.wave.events), m.wall_s,
        static_cast<double>(m.allocs) / m.wave.events,
        static_cast<unsigned long long>(m.wave.digest),
        static_cast<unsigned long long>(m.wave.peak_concurrent));
    runs.push_back(std::move(m));
  }

  const Measured& ref = runs.front();
  std::printf("  makespan %.1f us, %llu/%llu flows, digests %s\n",
              sim::to_us(ref.wave.makespan),
              static_cast<unsigned long long>(ref.wave.completed),
              static_cast<unsigned long long>(sched.total_flows),
              digest_ok ? "identical" : "DIVERGED");
  for (const auto& lq : ref.wave.layers) {
    std::printf("    %-10s p50 %10.2f us   p99 %10.2f us   p999 %10.2f us\n",
                lq.layer, lq.p50 / 1e6, lq.p99 / 1e6, lq.p999 / 1e6);
  }

  bench::Artifact art;
  art.config.str("workload", "fabric_traffic")
      .str("topology", "fat_tree")
      .count("oversubscription", a.oversub)
      .count("n_hosts", a.hosts)
      .count("shards", a.shards)
      .str("pattern", workload::to_string(a.pattern))
      .str("size_dist", std::string(cfg.sizes.name()))
      .num("flow_rate_per_host", "%g", a.rate)
      .count("flows_per_host", a.flows_per_host);
  art.sim.count("radix", params.fabric.fat_tree_radix)
      .count("n_switches", topo.n_switches())
      .num("mean_flow_bytes", "%.1f", cfg.sizes.mean())
      .count("total_flows", sched.total_flows)
      .count("peak_concurrent_flows", ref.wave.peak_concurrent)
      .num("makespan_us", "%.3f", sim::to_us(ref.wave.makespan));
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const Measured& m = runs[k];
    art.sim.row("threads")
        .count("threads", a.threads[k])
        .count("events", m.wave.events)
        .num("allocs_per_event", "%.6f",
             static_cast<double>(m.allocs) / m.wave.events)
        .hex("digest", m.wave.digest);
    art.wall.row("threads")
        .count("threads", a.threads[k])
        .num("events_per_sec", "%.1f", m.wave.events / m.wall_s);
  }
  for (const auto& lq : ref.wave.layers) {
    art.sim.row("layers")
        .str("layer", lq.layer)
        .count("count", lq.count)
        .num("p50_us", "%.3f", lq.p50 / 1e6)
        .num("p99_us", "%.3f", lq.p99 / 1e6)
        .num("p999_us", "%.3f", lq.p999 / 1e6);
  }
  art.sim.flag("digest_ok", digest_ok);
  if (!art.write(a.out)) return 1;
  return digest_ok ? 0 : 1;
}
