// Ablation: what is each FM 2.x interface feature worth? MPI-FM 2.0
// bandwidth with features disabled one at a time (the design choices of
// §4.1 that DESIGN.md calls out):
//   * staged send     — contiguous assembly instead of gather pieces
//   * whole-message   — handler starts only after the full message arrived
//                       (no layer interleaving / handler multithreading)
//   * PIO send        — programmed I/O instead of DMA from pinned buffers
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"

using namespace fmx;
using namespace fmx::bench;
using sim::Engine;
using sim::Task;

namespace {

double bw(const net::ClusterParams& cp, std::size_t msg, fm2::Config fcfg,
          mpi::MpiFm2Options opt, int n_msgs = 100) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  fm2::Endpoint ep0(cluster.node(0), cluster.fabric_of(0), fcfg);
  fm2::Endpoint ep1(cluster.node(1), cluster.fabric_of(1), fcfg);
  mpi::MpiFm2 tx(ep0, opt), rx(ep1, opt);
  sim::Ps t_end = 0;
  eng.spawn([](mpi::Comm& c, std::size_t sz, int n) -> Task<void> {
    Bytes m(sz);
    for (int i = 0; i < n; ++i) co_await c.send(ByteSpan{m}, 1, 0);
  }(tx, msg, n_msgs));
  eng.spawn([](Engine& e, mpi::Comm& c, std::size_t sz, int n,
               sim::Ps& end) -> Task<void> {
    std::vector<Bytes> bufs(n, Bytes(sz));
    std::vector<mpi::Request> reqs;
    for (int i = 0; i < n; ++i) {
      reqs.push_back(co_await c.irecv(MutByteSpan{bufs[i]}, 0, 0));
    }
    for (auto& r : reqs) co_await c.wait(r);
    end = e.now();
  }(eng, rx, msg, n_msgs, t_end));
  cluster.run();
  return static_cast<double>(msg) * n_msgs / sim::to_seconds(t_end) / 1e6;
}

}  // namespace

int main() {
  auto platform = net::ppro_fm2_cluster(2);
  std::puts("=== Ablation: MPI-FM 2.0 bandwidth with FM 2.x interface "
            "features disabled (MB/s) ===\n");
  std::printf("%10s %10s %12s %14s %10s\n", "msg bytes", "baseline",
              "staged send", "whole-message", "PIO send");
  for (std::size_t s : {16UL, 64UL, 256UL, 1024UL, 4096UL, 16384UL}) {
    fm2::Config base{};
    fm2::Config whole{};
    whole.whole_message_handlers = true;
    fm2::Config pio{};
    pio.pio_send = true;
    mpi::MpiFm2Options none{};
    mpi::MpiFm2Options staged{};
    staged.staged_send = true;
    std::printf("%10zu %10.2f %12.2f %14.2f %10.2f\n", s,
                bw(platform, s, base, none),
                bw(platform, s, base, staged),
                bw(platform, s, whole, none),
                bw(platform, s, pio, none));
  }
  std::puts("\nreading the table:");
  std::puts(" * staged send pays one extra full-message copy -> large "
            "messages lose the most;");
  std::puts(" * whole-message delivery costs little in a STREAMING test "
            "(cross-message pipelining hides it) — see below for where it "
            "hurts;");
  std::puts(" * PIO puts the host CPU on the critical path for every "
            "byte crossing the bus.");

  // Layer interleaving's real payoff: within-message overlap of reception
  // and consumption, i.e. the completion time of ONE large message.
  std::puts("\n=== Single-message completion time (one-way, us): layer "
            "interleaving on vs off ===\n");
  std::printf("%12s %14s %16s\n", "msg bytes", "interleaved", "whole-message");
  for (std::size_t s : {4096UL, 16384UL, 65536UL}) {
    fm2::Config base{};
    fm2::Config whole{};
    whole.whole_message_handlers = true;
    double t_base = fm2_latency_us(platform, s, 10, base);
    double t_whole = fm2_latency_us(platform, s, 10, whole);
    std::printf("%12zu %14.1f %16.1f\n", s, t_base, t_whole);
  }
  std::puts("\nwith handler multithreading the handler consumes each packet "
            "as it lands;\nwhole-message delivery serializes the final copy "
            "after the last packet arrives.");
  std::puts("\nnote: with whole-message delivery and consumption-based "
            "credits, messages larger\nthan the credit window DEADLOCK "
            "(nothing is consumed until everything arrives,\nnothing more "
            "can arrive until something is consumed) — FM 1.x escapes only "
            "by\npaying the staging copy; FM 2.x's interleaving dissolves "
            "the cycle. The deadlock\nitself is demonstrated in "
            "tests/fm2/fm2_test.cpp.");
  return 0;
}
