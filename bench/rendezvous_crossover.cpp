// Eager vs rendezvous/RDMA crossover on the 2-host Pentium Pro platform.
//
// Sweeps message sizes from 512 B to 128 KB and measures, in simulated
// time, three MPI transfer modes:
//   - eager:  the paper-era MPI-FM protocol (payload streams immediately;
//     unexpected data is staged, expected data scatters into the posted
//     buffer),
//   - rdzv-rdma: RTS/CTS negotiation, then the sender's NIC writes the
//     payload straight into the pinned receive buffer (remote-memory
//     write) — zero host copies on either side,
//   - rdzv-stream: the same negotiation but the payload moves over the FM
//     host-staged stream path (the rdma=false ablation).
//
// Reports one-way latency (warm pin-down cache: the ping-pong reuses its
// buffers, so registration hits after the first round) and streaming
// bandwidth, plus the zero-copy proof for the RDMA path taken from the
// process-level CopyStats counters: zero per-hop simulator copies, every
// payload byte placed exactly once by the modeled DMA engine, and
// endpoint (host CPU) copies covering control traffic only.
//
// The crossover size — the smallest swept size where rendezvous/RDMA
// one-way latency beats eager — is the number an MPI implementation would
// use for its eager_threshold on this platform. Everything here is
// simulated time, so the JSON artifact is bit-stable across machines and
// `scripts/bench_check.py rendezvous` compares it exactly.
//
// Usage: rendezvous_crossover [out.json]
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "common/copy_stats.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"

using namespace fmx;
using bench::Measurement;

namespace {

constexpr std::size_t kSizes[] = {512,       1024,      2048,      4096,
                                  8 * 1024,  16 * 1024, 32 * 1024, 64 * 1024,
                                  128 * 1024};
constexpr int kLatencyRounds = 20;
constexpr int kBandwidthMsgs = 50;

mpi::MpiFm2Options eager_opt() {
  mpi::MpiFm2Options o;
  o.eager_threshold = ~std::size_t{0};
  return o;
}
mpi::MpiFm2Options rdzv_rdma_opt() {
  mpi::MpiFm2Options o;
  o.eager_threshold = 0;
  o.rdma = true;
  return o;
}
mpi::MpiFm2Options rdzv_stream_opt() {
  mpi::MpiFm2Options o;
  o.eager_threshold = 0;
  o.rdma = false;
  return o;
}

/// One-way latency, ping-pong / 2. Buffers are reused across rounds, so
/// the rendezvous modes run against a warm pin-down cache — the regime the
/// cache exists for.
double latency_us(const mpi::MpiFm2Options& opt, std::size_t msg_size,
                  int rounds) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  sim::Engine& eng = cluster.shard_engine(0);
  fm2::Endpoint ep0(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint ep1(cluster.node(1), cluster.fabric_of(1));
  mpi::MpiFm2 a(ep0, opt), b(ep1, opt);
  sim::Ps t_end = 0;
  eng.spawn([](sim::Engine& e, mpi::Comm& c, std::size_t sz, int n,
               sim::Ps& end) -> sim::Task<void> {
    Bytes m(sz), r(sz);
    for (int i = 0; i < n; ++i) {
      co_await c.send(ByteSpan{m}, 1, 0);
      co_await c.recv(MutByteSpan{r}, 1, 0);
    }
    end = e.now();
  }(eng, a, msg_size, rounds, t_end));
  eng.spawn([](mpi::Comm& c, std::size_t sz, int n) -> sim::Task<void> {
    Bytes m(sz), r(sz);
    for (int i = 0; i < n; ++i) {
      co_await c.recv(MutByteSpan{r}, 0, 0);
      co_await c.send(ByteSpan{m}, 0, 0);
    }
  }(b, msg_size, rounds));
  cluster.run();
  return sim::to_us(t_end) / (2.0 * rounds);
}

struct BwResult {
  double mbs = 0;
  CopyStats::Snapshot copies;  // delta over the measured run
  net::RegCache::Stats reg;    // receiver-side pin-down cache
};

/// Streaming bandwidth with a window of pre-posted irecvs (the standard
/// methodology, and the shape that keeps the rendezvous pipeline full).
BwResult bandwidth(const mpi::MpiFm2Options& opt, std::size_t msg_size,
                   int n_msgs) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  sim::Engine& eng = cluster.shard_engine(0);
  fm2::Endpoint ep0(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint ep1(cluster.node(1), cluster.fabric_of(1));
  mpi::MpiFm2 tx(ep0, opt), rx(ep1, opt);
  sim::Ps t_end = 0;
  eng.spawn([](mpi::Comm& c, std::size_t sz, int n) -> sim::Task<void> {
    Bytes m(sz);
    for (int i = 0; i < n; ++i) co_await c.send(ByteSpan{m}, 1, 0);
  }(tx, msg_size, n_msgs));
  eng.spawn([](sim::Engine& e, mpi::Comm& c, std::size_t sz, int n,
               sim::Ps& end) -> sim::Task<void> {
    std::vector<Bytes> bufs(n, Bytes(sz));
    std::vector<mpi::Request> reqs;
    reqs.reserve(n);
    for (int i = 0; i < n; ++i) {
      reqs.push_back(co_await c.irecv(MutByteSpan{bufs[i]}, 0, 0));
    }
    for (auto& r : reqs) co_await c.wait(r);
    end = e.now();
  }(eng, rx, msg_size, n_msgs, t_end));
  CopyStats::instance().reset();
  cluster.run();
  BwResult r;
  r.mbs = static_cast<double>(msg_size) * n_msgs / sim::to_seconds(t_end) /
          1e6;
  r.copies = CopyStats::instance().snapshot();
  r.reg = cluster.node(1).host().reg_cache().stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_rendezvous.json";
  const std::size_t n_sizes = sizeof(kSizes) / sizeof(kSizes[0]);

  std::puts("=== Eager vs rendezvous/RDMA crossover (2-host PPro) ===\n");
  std::printf("%10s %11s %11s %11s %11s %11s\n", "msg bytes", "eager us",
              "rdma us", "stream us", "eager MB/s", "rdma MB/s");

  double eager_lat[n_sizes], rdma_lat[n_sizes], stream_lat[n_sizes];
  double eager_bw[n_sizes], rdma_bw[n_sizes];
  BwResult rdma_bwr[n_sizes];
  for (std::size_t i = 0; i < n_sizes; ++i) {
    const std::size_t s = kSizes[i];
    eager_lat[i] = latency_us(eager_opt(), s, kLatencyRounds);
    rdma_lat[i] = latency_us(rdzv_rdma_opt(), s, kLatencyRounds);
    stream_lat[i] = latency_us(rdzv_stream_opt(), s, kLatencyRounds);
    eager_bw[i] = bandwidth(eager_opt(), s, kBandwidthMsgs).mbs;
    rdma_bwr[i] = bandwidth(rdzv_rdma_opt(), s, kBandwidthMsgs);
    rdma_bw[i] = rdma_bwr[i].mbs;
    std::printf("%10zu %11.1f %11.1f %11.1f %11.2f %11.2f\n", s,
                eager_lat[i], rdma_lat[i], stream_lat[i], eager_bw[i],
                rdma_bw[i]);
  }

  // Crossover: smallest swept size where rendezvous/RDMA latency wins.
  // sign_changes counts eager/rdma advantage flips across the sweep — a
  // clean protocol crossover flips exactly once.
  std::size_t crossover = 0;
  int sign_changes = 0;
  for (std::size_t i = 0; i < n_sizes; ++i) {
    const bool rdma_wins = rdma_lat[i] < eager_lat[i];
    if (rdma_wins && crossover == 0) crossover = kSizes[i];
    if (i > 0 && rdma_wins != (rdma_lat[i - 1] < eager_lat[i - 1])) {
      ++sign_changes;
    }
  }

  // Zero-copy proof, taken from the largest RDMA streaming run: the
  // simulator moved each payload byte exactly once (the modeled DMA
  // placement), performed no per-hop copies, and the host-CPU endpoint
  // copies account for control traffic only (<< one payload's worth).
  const BwResult& proof = rdma_bwr[n_sizes - 1];
  const std::uint64_t payload_bytes =
      static_cast<std::uint64_t>(kSizes[n_sizes - 1]) * kBandwidthMsgs;
  const bool zero_copy_ok = proof.copies.hop_copies == 0 &&
                            proof.copies.rdma_bytes == payload_bytes &&
                            proof.copies.endpoint_bytes < kSizes[n_sizes - 1];

  std::printf("\ncrossover: rendezvous/RDMA wins from %zu bytes "
              "(%d advantage flip%s)\n",
              crossover, sign_changes, sign_changes == 1 ? "" : "s");
  std::printf("zero-copy proof at %zu B x %d msgs: %llu hop copies, "
              "%llu/%llu rdma bytes placed, %llu endpoint bytes (control), "
              "pin cache %llu hits / %llu misses -> %s\n",
              kSizes[n_sizes - 1], kBandwidthMsgs,
              static_cast<unsigned long long>(proof.copies.hop_copies),
              static_cast<unsigned long long>(proof.copies.rdma_bytes),
              static_cast<unsigned long long>(payload_bytes),
              static_cast<unsigned long long>(proof.copies.endpoint_bytes),
              static_cast<unsigned long long>(proof.reg.hits),
              static_cast<unsigned long long>(proof.reg.misses),
              zero_copy_ok ? "ok" : "FAILED");

  bench::Artifact art;
  art.config.str("platform", "ppro_fm2_cluster(2)")
      .count("latency_rounds", kLatencyRounds)
      .count("bandwidth_msgs", kBandwidthMsgs);
  art.sim.count("crossover_bytes", crossover)
      .count("advantage_flips", sign_changes);
  art.sim.obj("zero_copy")
      .count("hop_copies", proof.copies.hop_copies)
      .count("rdma_bytes", proof.copies.rdma_bytes)
      .count("payload_bytes", payload_bytes)
      .count("endpoint_bytes", proof.copies.endpoint_bytes)
      .count("reg_hits", proof.reg.hits)
      .count("reg_misses", proof.reg.misses);
  for (std::size_t i = 0; i < n_sizes; ++i) {
    art.sim.row("sizes")
        .count("bytes", kSizes[i])
        .num("eager_lat_us", "%.3f", eager_lat[i])
        .num("rdma_lat_us", "%.3f", rdma_lat[i])
        .num("stream_lat_us", "%.3f", stream_lat[i])
        .num("eager_bw_mbs", "%.3f", eager_bw[i])
        .num("rdma_bw_mbs", "%.3f", rdma_bw[i]);
  }
  if (!art.write(out_path)) return 1;
  return zero_copy_ok && sign_changes == 1 ? 0 : 1;
}
