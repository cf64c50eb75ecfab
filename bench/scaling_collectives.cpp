// NIC-offloaded vs host-level collectives across cluster sizes.
//
// For each (preset, ranks) configuration one cluster runs both algorithm
// families back to back on the SAME MpiFm2 communicators:
//   - host: the dissemination barrier / binomial bcast / reduce+bcast
//     allreduce executed by host-level MPI sends (qualified
//     `c.mpi::Comm::op()` calls suppress the virtual dispatch — the
//     ablation),
//   - nic:  the same four operations forwarded through the NIC control
//     program (myrinet/coll.hpp): combining and fan-out happen NIC-to-NIC
//     along a topology-derived tree and each host is interrupted exactly
//     once per operation, at completion.
//
// Methodology: every measured phase is bracketed by NIC barriers. Rank 0
// (the tree root) stamps t0 when its opening barrier completes and t1 when
// its closing barrier completes — the closing barrier cannot complete
// until every rank finished all `iters` operations, so the window covers
// full delivery on every rank, for both algorithm families, at the cost of
// one (cheap, identical) sync barrier amortized over `iters`.
//
// Per phase the bench also records, cluster-wide:
//   - heap allocations (global operator-new hook): the NIC phases must be
//     allocation-free in the steady state (pools are warmed by one
//     untimed round of every phase),
//   - FM handler starts: the NIC phases must show ZERO — interior tree
//     steps never touch a host, and completion is polled, not dispatched.
//     The host phases show thousands; that delta is the offload.
//
// Everything reported is simulated time, so the JSON artifact
// (BENCH_collectives.json) is bit-stable across machines and
// `scripts/bench_check.py collectives` compares overlapping rows
// exactly; each (preset, ranks) configuration is an independent engine, so
// a reduced --max-ranks sweep reproduces the committed rows verbatim.
//
// Usage: scaling_collectives [--max-ranks N] [--out FILE]
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_util.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"

using namespace fmx;
using sim::Engine;
using sim::Task;

namespace {

constexpr int kRankSteps[] = {8, 16, 32, 64, 128, 256, 512};
constexpr int kIters = 10;
constexpr std::size_t kBcastBytes = 256;
constexpr std::size_t kReduceDoubles = 8;
constexpr int kCollRadix = 6;

enum class Op { kBarrier, kBcast, kReduce, kAllreduce };
enum class Algo { kHost, kNic };

constexpr const char* op_name(Op op) {
  switch (op) {
    case Op::kBarrier: return "barrier";
    case Op::kBcast: return "bcast";
    case Op::kReduce: return "reduce";
    case Op::kAllreduce: return "allreduce";
  }
  return "?";
}

struct Phase {
  Op op;
  Algo algo;
};
// Host first, NIC second within each op: adjacent rows in the table, and
// the host phase re-dirties caches/pools before each NIC measurement so
// the NIC numbers are not an artifact of phase ordering.
constexpr Phase kPhases[] = {
    {Op::kBarrier, Algo::kHost},   {Op::kBarrier, Algo::kNic},
    {Op::kBcast, Algo::kHost},     {Op::kBcast, Algo::kNic},
    {Op::kReduce, Algo::kHost},    {Op::kReduce, Algo::kNic},
    {Op::kAllreduce, Algo::kHost}, {Op::kAllreduce, Algo::kNic},
};
constexpr int kNumPhases = int(sizeof(kPhases) / sizeof(kPhases[0]));

Task<void> run_op(mpi::MpiFm2& c, Op op, Algo algo, MutByteSpan buf,
                  std::span<double> v) {
  const bool host = algo == Algo::kHost;
  switch (op) {
    case Op::kBarrier:
      if (host) co_await c.mpi::Comm::barrier();
      else co_await c.barrier();
      break;
    case Op::kBcast:
      if (host) co_await c.mpi::Comm::bcast(buf, 0);
      else co_await c.bcast(buf, 0);
      break;
    case Op::kReduce:
      if (host) co_await c.mpi::Comm::reduce_sum(v, 0);
      else co_await c.reduce_sum(v, 0);
      break;
    case Op::kAllreduce:
      if (host) co_await c.mpi::Comm::allreduce_sum(v);
      else co_await c.allreduce_sum(v);
      break;
  }
}

struct PhaseOut {
  double us = 0;  // raw window while measuring; per-op after run_config
  std::uint64_t allocs = 0;  // cluster-wide heap allocations in the window
  std::uint64_t handler_starts = 0;  // cluster-wide FM handler dispatches
};

using Comms = std::vector<std::unique_ptr<mpi::MpiFm2>>;

std::uint64_t handler_sum(const Comms& comms) {
  std::uint64_t n = 0;
  for (const auto& c : comms) n += c->fm().stats().handler_starts;
  return n;
}

Task<void> rank_main(Engine& eng, Comms& comms, int rank,
                     std::array<PhaseOut, kNumPhases>& out) {
  mpi::MpiFm2& c = *comms[rank];
  Bytes buf(kBcastBytes);
  std::vector<double> v(kReduceDoubles, 1.0);
  // Pass 0 is an untimed warmup of the EXACT measured sequence: it joins
  // the NIC group and sizes buffer pools, matcher and NIC queues at the
  // same pipelining depth the measurement reaches (a rooted reduce lets
  // non-roots run kIters epochs ahead), so pass 1 is allocation-free.
  for (int pass = 0; pass < 2; ++pass) {
    const bool measure = pass == 1 && rank == 0;
    for (int p = 0; p < kNumPhases; ++p) {
      co_await c.barrier();  // NIC sync: opens the phase
      sim::Ps t0 = 0;
      std::uint64_t h0 = 0;
      if (measure) {
        t0 = eng.now();
        h0 = handler_sum(comms);
        bench::alloc_hook_reset();
      }
      for (int i = 0; i < kIters; ++i) {
        co_await run_op(c, kPhases[p].op, kPhases[p].algo, MutByteSpan{buf},
                        v);
      }
      co_await c.barrier();  // NIC sync: all ranks finished all iters
      if (measure) {
        out[p].us = sim::to_us(eng.now() - t0);  // raw, incl. closing sync
        out[p].allocs = bench::alloc_hook_count();
        out[p].handler_starts = handler_sum(comms) - h0;
      }
    }
  }
}

struct ConfigResult {
  std::array<PhaseOut, kNumPhases> phases;
  std::uint64_t completions = 0;  // summed NIC coll_completions
  std::uint64_t expected = 0;     // one host interruption per NIC op
};

ConfigResult run_config(const net::ClusterParams& params) {
  net::ParallelCluster cluster(params, 1);
  Engine& eng = cluster.shard_engine(0);
  mpi::MpiFm2Options opt;
  opt.nic_collectives = true;
  opt.coll_radix = kCollRadix;
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  Comms comms;
  for (int r = 0; r < params.n_hosts; ++r) {
    eps.push_back(std::make_unique<fm2::Endpoint>(cluster.node(r),
                                                  cluster.fabric_of(r)));
    comms.push_back(std::make_unique<mpi::MpiFm2>(*eps.back(), opt));
  }
  ConfigResult res;
  for (int r = 0; r < params.n_hosts; ++r) {
    eng.spawn(rank_main(eng, comms, r, res.phases));
  }
  cluster.run();
  // De-bias the sync overhead: every phase window closes with one NIC
  // barrier. For the NIC-barrier phase itself that closing sync is simply
  // the (kIters+1)-th sample of the measured op; every other phase
  // subtracts exactly one NIC-barrier time from its window.
  const double nic_bar = res.phases[1].us / (kIters + 1);
  for (int p = 0; p < kNumPhases; ++p) {
    res.phases[p].us =
        p == 1 ? nic_bar : (res.phases[p].us - nic_bar) / kIters;
  }
  // The single-interrupt contract, counted: NIC completions per rank ==
  // join + 2 passes of (2 sync barriers per phase + the NIC phases' ops).
  res.expected =
      std::uint64_t(params.n_hosts) *
      (1u + 2u * (2u * kNumPhases + std::uint64_t(kNumPhases / 2) * kIters));
  for (int i = 0; i < params.n_hosts; ++i) {
    res.completions += cluster.node(i).nic().stats().coll_completions;
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  int max_ranks = kRankSteps[sizeof(kRankSteps) / sizeof(int) - 1];
  std::string out_path = "BENCH_collectives.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--max-ranks") && i + 1 < argc) {
      max_ranks = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--max-ranks N] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  struct Preset {
    const char* name;
    net::ClusterParams (*make)(int);
  };
  const Preset presets[] = {
      {"chain", [](int n) { return net::ppro_fm2_cluster(n); }},
      // Fixed radix 16 (capacity 1024) so the fabric shape is constant
      // across the sweep: with the auto-derived radix the topology
      // reshapes between rank steps (hosts-per-edge-switch changes), and
      // the scaling curve would measure tree-shape jumps, not rank count.
      {"fat_tree",
       [](int n) { return net::fat_tree_cluster(n, 16, 1); }},
  };

  std::puts("=== NIC-offloaded vs host-level collectives (us per op, "
            "simulated) ===\n");
  std::printf("%9s %6s %10s  %10s %10s %8s  %7s %9s\n", "preset", "ranks",
              "op", "host us", "nic us", "speedup", "allocs", "handlers");

  struct Row {
    const char* preset;
    int ranks;
    Op op;
    PhaseOut host, nic;
  };
  std::vector<Row> rows;
  bool completions_ok = true;
  bool nic_quiet = true;  // no handler starts, no allocs in NIC phases

  for (const Preset& pre : presets) {
    for (int ranks : kRankSteps) {
      if (ranks > max_ranks) continue;
      ConfigResult r = run_config(pre.make(ranks));
      if (r.completions != r.expected) {
        completions_ok = false;
        std::fprintf(stderr,
                     "%s/%d: coll_completions %llu != expected %llu\n",
                     pre.name, ranks,
                     static_cast<unsigned long long>(r.completions),
                     static_cast<unsigned long long>(r.expected));
      }
      for (int p = 0; p + 1 < kNumPhases; p += 2) {
        Row row{pre.name, ranks, kPhases[p].op, r.phases[p],
                r.phases[p + 1]};
        rows.push_back(row);
        if (row.nic.handler_starts != 0 || row.nic.allocs != 0) {
          nic_quiet = false;
        }
        std::printf("%9s %6d %10s  %10.1f %10.1f %7.2fx  %7llu %9llu\n",
                    pre.name, ranks, op_name(row.op), row.host.us,
                    row.nic.us, row.host.us / row.nic.us,
                    static_cast<unsigned long long>(row.nic.allocs),
                    static_cast<unsigned long long>(
                        row.nic.handler_starts));
      }
    }
  }

  std::printf("\nsingle-interrupt contract: %s; NIC phases quiet "
              "(0 allocs, 0 handler starts): %s\n",
              completions_ok ? "ok" : "FAILED",
              nic_quiet ? "ok" : "FAILED");

  bench::Artifact art;
  art.config.count("iters", kIters)
      .count("coll_radix", kCollRadix)
      .count("bcast_bytes", kBcastBytes)
      .count("reduce_doubles", kReduceDoubles);
  art.sim.flag("completions_ok", completions_ok);
  for (const Row& row : rows) {
    art.sim.row("results")
        .str("preset", row.preset)
        .count("ranks", row.ranks)
        .str("op", op_name(row.op))
        .num("host_us", "%.3f", row.host.us)
        .num("nic_us", "%.3f", row.nic.us)
        .num("speedup", "%.3f", row.host.us / row.nic.us)
        .count("nic_allocs", row.nic.allocs)
        .count("nic_handler_starts", row.nic.handler_starts)
        .count("host_handler_starts", row.host.handler_starts);
  }
  if (!art.write(out_path)) return 1;
  return completions_ok && nic_quiet ? 0 : 1;
}
