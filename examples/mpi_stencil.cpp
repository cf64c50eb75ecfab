// MPI-FM example: 1-D heat diffusion with halo exchange — the classic
// message-passing workload the paper's MPI-FM layer exists to serve.
//
// A rod of N cells is block-distributed over 8 ranks. Each iteration every
// rank exchanges one-cell halos with its neighbours (MPI sendrecv over
// MPI-FM 2.x) and applies the 3-point stencil. The iteration count is not
// fixed: every iteration ends with an allreduce of the global residual and
// the loop exits when it drops below tolerance — the convergence-test
// pattern that makes collective latency an every-iteration cost.
//
// The whole simulation runs twice, once with host-level collectives and
// once with MpiFm2Options::nic_collectives (the allreduce forwarded
// through the NIC control program, one host interruption per operation).
// Both runs must converge at the same iteration with bit-identical
// residuals; the difference is who does the combining, reported as the FM
// handler-start (host-interrupt) delta at the end.
//
// Build & run:  ./build/examples/mpi_stencil
#include <cmath>
#include <cstdio>
#include <vector>

#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"

using namespace fmx;
using mpi::MpiFm2;
using sim::Task;

namespace {

constexpr int kRanks = 8;
constexpr int kCellsPerRank = 64;
constexpr int kMaxIters = 400;
constexpr double kAlpha = 0.25;
constexpr double kTol = 3.0;

struct RunResult {
  double final_residual = -1.0;
  double total_heat = 0.0;
  int iters = 0;
  double sim_ms = 0.0;
  std::uint64_t handler_starts = 0;  // cluster-wide host interruptions
  std::uint64_t sends = 0;
};

Task<void> rank_program(MpiFm2& comm, RunResult& out) {
  const int me = comm.rank();
  const int n = comm.size();
  // Local block with two ghost cells. Initial condition: a hot spike in
  // the middle of rank 0's block.
  std::vector<double> u(kCellsPerRank + 2, 0.0);
  std::vector<double> next(kCellsPerRank + 2, 0.0);
  if (me == 0) u[kCellsPerRank / 2] = 1000.0;

  for (int it = 0; it < kMaxIters; ++it) {
    // Halo exchange: even/odd pairing via sendrecv avoids deadlock.
    if (me + 1 < n) {
      co_await comm.sendrecv(as_bytes_of(u[kCellsPerRank]), me + 1, 0,
                             as_writable_bytes_of(u[kCellsPerRank + 1]),
                             me + 1, 1);
    }
    if (me - 1 >= 0) {
      co_await comm.sendrecv(as_bytes_of(u[1]), me - 1, 1,
                             as_writable_bytes_of(u[0]), me - 1, 0);
    }
    // 3-point stencil (ends of the rod are fixed at 0).
    for (int i = 1; i <= kCellsPerRank; ++i) {
      bool global_edge = (me == 0 && i == 1) ||
                         (me == n - 1 && i == kCellsPerRank);
      next[i] = global_edge
                    ? u[i]
                    : u[i] + kAlpha * (u[i - 1] - 2 * u[i] + u[i + 1]);
    }
    std::swap(u, next);
    // Charge the host for the compute phase so communication/computation
    // overlap shows up in simulated time.
    co_await comm.host_compute(sim::us(5));

    // Convergence test: allreduce the per-iteration change. Every rank
    // sees the same global residual, so every rank takes the same exit.
    double local = 0;
    for (int i = 1; i <= kCellsPerRank; ++i) {
      local += std::abs(u[i] - next[i]);
    }
    std::vector<double> sum{local};
    co_await comm.allreduce_sum(std::span<double>{sum});
    if (me == 0) {
      if ((it + 1) % 50 == 0) {
        std::printf("  iter %4d  global residual %.4f\n", it + 1, sum[0]);
      }
      out.final_residual = sum[0];
      out.iters = it + 1;
    }
    if (sum[0] < kTol) break;
  }

  // Conservation check: total heat must still sum to ~1000.
  double local = 0;
  for (int i = 1; i <= kCellsPerRank; ++i) local += u[i];
  std::vector<double> total{local};
  co_await comm.allreduce_sum(std::span<double>{total});
  if (me == 0) out.total_heat = total[0];
}

RunResult run_sim(bool nic_collectives) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(kRanks), 1);
  sim::Engine& engine = cluster.shard_engine(0);
  mpi::MpiFm2Options opt;
  opt.nic_collectives = nic_collectives;
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  std::vector<std::unique_ptr<MpiFm2>> comms;
  for (int r = 0; r < kRanks; ++r) {
    eps.push_back(std::make_unique<fm2::Endpoint>(cluster.node(r),
                                                  cluster.fabric_of(r)));
    comms.push_back(std::make_unique<MpiFm2>(*eps.back(), opt));
  }
  RunResult out;
  std::printf("%s collectives:\n", nic_collectives ? "NIC" : "host");
  for (int r = 0; r < kRanks; ++r) {
    cluster.spawn_on(r, rank_program(*comms[r], out));
  }
  cluster.run();
  out.sim_ms = sim::to_us(engine.now()) / 1000.0;
  out.sends = comms[0]->stats().sends;
  for (const auto& c : comms) out.handler_starts += c->fm().stats().handler_starts;
  if (engine.pending_roots() != 0) out.final_residual = -1.0;
  std::printf("  converged at iter %d, residual %.4f, heat %.2f, "
              "%.2f ms simulated, %llu host interrupts\n",
              out.iters, out.final_residual, out.total_heat,
              out.sim_ms,
              static_cast<unsigned long long>(out.handler_starts));
  return out;
}

}  // namespace

int main() {
  RunResult host = run_sim(false);
  RunResult nic = run_sim(true);

  // Same physics either way: the NIC path must reproduce the host path's
  // convergence trajectory bit for bit.
  const bool same = host.iters == nic.iters &&
                    host.final_residual == nic.final_residual &&
                    host.total_heat == nic.total_heat;
  std::printf("\nNIC offload: %.2f -> %.2f ms simulated, host interrupts "
              "%llu -> %llu (%.1fx fewer), results %s\n",
              host.sim_ms, nic.sim_ms,
              static_cast<unsigned long long>(host.handler_starts),
              static_cast<unsigned long long>(nic.handler_starts),
              nic.handler_starts
                  ? double(host.handler_starts) / double(nic.handler_starts)
                  : 0.0,
              same ? "bit-identical" : "DIVERGED");
  return (same && host.final_residual >= 0 && host.final_residual < kTol)
             ? 0
             : 1;
}
