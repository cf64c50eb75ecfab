// Parallel-execution determinism: the sharded cluster must produce
// bit-identical results at every thread count, with 1-thread parallel mode
// as the reference "serial mode". The workload is an all-to-all FM 2.x
// message stream (sizes crossing packet boundaries) reduced to one FNV-1a
// digest over receiver-observed payload CRCs, endpoint/NIC/fabric/injector
// statistics, per-shard clocks, and the global event count — any
// divergence in cross-shard event ordering shows up here. (Window and
// barrier counts are deliberately excluded: under the published-horizon
// scheduler quantum boundaries depend on thread timing; the *simulated*
// state may not.) Run clean and
// under the seeded lossy fault plan from determinism_test.cpp (go-back-N
// recovery on), plus a golden-trace digest over the deterministically
// merged per-shard trace streams.
//
// If a deliberate semantic change moves a pinned value, re-pin it in the
// same commit with the reason in the commit message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/crc32.hpp"
#include "fault/injector.hpp"
#include "fm1/fm1.hpp"
#include "fm2/fm2.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "myrinet/params.hpp"

namespace fmx {
namespace {

using sim::Task;

struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

constexpr int kNodes = 4;
constexpr int kMsgsPerPeer = 10;
constexpr std::uint64_t kSeed = 17;
constexpr std::size_t kSizes[] = {17, 256, 1024, 2048};
constexpr std::size_t kMaxSize = 2048;

std::uint64_t run_workload(int threads, bool lossy,
                           std::uint64_t* trace_digest = nullptr) {
  auto params = net::ppro_fm2_cluster(kNodes);
  if (lossy) params.nic.reliable_link = true;
  net::ParallelCluster cl(params);
  std::vector<std::unique_ptr<fault::PlanInjector>> injectors;
  if (lossy) {
    injectors = fault::arm(cl, fault::FaultPlan::lossy(0.03, kSeed));
  }
  if (trace_digest != nullptr) cl.enable_tracing(1 << 16);

  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  std::vector<Digest> rx(kNodes);
  std::vector<int> got(kNodes, 0);
  std::vector<Bytes> sink(kNodes, Bytes(kMaxSize));
  for (int i = 0; i < kNodes; ++i) {
    eps.push_back(
        std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
  }
  for (int i = 0; i < kNodes; ++i) {
    eps[i]->register_handler(
        0, [&rx, &sink, &got, i](fm2::RecvStream& s,
                                 int src) -> fm2::HandlerTask {
          const std::size_t n = s.msg_bytes();
          if (n > 0) co_await s.receive(sink[i].data(), n);
          rx[i].mix(crc32(ByteSpan{sink[i].data(), n}));
          rx[i].mix(static_cast<std::uint64_t>(src));
          ++got[i];
        });
  }

  for (int i = 0; i < kNodes; ++i) {
    cl.spawn_on(i, [](fm2::Endpoint& ep, int self) -> Task<void> {
      for (int m = 0; m < kMsgsPerPeer; ++m) {
        for (int j = 0; j < kNodes; ++j) {
          if (j == self) continue;
          Bytes msg =
              pattern_bytes(static_cast<std::uint64_t>(self) * 131 + m,
                            kSizes[(m + j) % 4]);
          co_await ep.send(j, 0, ByteSpan{msg});
        }
      }
    }(*eps[i], i));
    cl.spawn_on(i, [](fm2::Endpoint& ep, int& g) -> Task<void> {
      co_await ep.poll_until(
          [&g] { return g == kMsgsPerPeer * (kNodes - 1); });
    }(*eps[i], got[i]));
  }

  auto r = cl.run(threads);
  EXPECT_EQ(r.pending_roots, 0) << "deadlock: unfinished roots";

  Digest d;
  d.mix(r.events);
  for (int s = 0; s < cl.n_shards(); ++s) d.mix(cl.shard_engine(s).now());
  for (int i = 0; i < kNodes; ++i) {
    d.mix(rx[i].h);
    d.mix(static_cast<std::uint64_t>(got[i]));
    const auto& st = eps[i]->stats();
    d.mix(st.msgs_sent);
    d.mix(st.msgs_received);
    d.mix(st.bytes_received);
    d.mix(st.packets_sent);
    d.mix(st.handler_starts);
    d.mix(st.handler_resumes);
    d.mix(st.credit_packets_sent);
    const auto& ns = cl.node(i).nic().stats();
    d.mix(ns.tx_packets);
    d.mix(ns.rx_packets);
    d.mix(ns.crc_dropped);
    d.mix(ns.seq_dropped);
    d.mix(ns.retransmissions);
  }
  const auto fs = cl.fabric_stats();
  d.mix(fs.packets);
  d.mix(fs.payload_bytes);
  d.mix(fs.dropped);
  d.mix(fs.corrupted);
  d.mix(fs.duplicated);
  for (const auto& inj : injectors) {
    d.mix(inj->stats().packets_seen);
    d.mix(inj->stats().drops);
    d.mix(inj->stats().corruptions);
  }

  if (trace_digest != nullptr) {
    Digest td;
    for (const trace::Event& e : cl.merged_trace()) {
      td.mix(e.t);
      td.mix(e.msg_id);
      td.mix(e.arg);
      td.mix(static_cast<std::uint64_t>(e.node));
      td.mix(static_cast<std::uint64_t>(e.layer));
      td.mix(static_cast<std::uint64_t>(e.type));
    }
    *trace_digest = td.h;
  }
  return d.h;
}

// --- Rendezvous/RDMA-heavy workload ----------------------------------------
// Messages above the MPI-FM2 eager threshold negotiate RTS/CTS and move
// their payloads as kRdmaWrite chunks the destination NIC places directly
// into the posted receive buffer — a different packet kind, a different
// completion path, and pin-down cache traffic, all of which must stay
// bit-identical at any thread count. Ring traffic keeps every stream
// crossing a shard boundary; one eager-sized message per pair interleaves
// the two data planes.
constexpr std::size_t kRdzvSizes[] = {8 * 1024 + 1, 12 * 1024, 640,
                                      16 * 1024 + 7};
constexpr int kRdzvMsgs = 4;

std::uint64_t run_rdzv_workload(int threads) {
  net::ParallelCluster cl(net::ppro_fm2_cluster(kNodes));
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  std::vector<std::unique_ptr<mpi::MpiFm2>> mps;
  mpi::MpiFm2Options opt;
  opt.eager_threshold = 2048;
  for (int i = 0; i < kNodes; ++i) {
    eps.push_back(
        std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
    mps.push_back(std::make_unique<mpi::MpiFm2>(*eps[i], opt));
  }

  std::vector<Digest> rx(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    cl.spawn_on(i, [](mpi::MpiFm2& c, int self) -> Task<void> {
      const int dst = (self + 1) % kNodes;
      for (int k = 0; k < kRdzvMsgs; ++k) {
        Bytes m = pattern_bytes(static_cast<std::uint64_t>(self) * 977 + k,
                                kRdzvSizes[k]);
        co_await c.send(ByteSpan{m}, dst, k);
      }
    }(*mps[i], i));
    cl.spawn_on(i, [](mpi::MpiFm2& c, Digest& dg, int self) -> Task<void> {
      const int src = (self + kNodes - 1) % kNodes;
      for (int k = 0; k < kRdzvMsgs; ++k) {
        Bytes buf(kRdzvSizes[k]);
        co_await c.recv(MutByteSpan{buf}, src, k);
        dg.mix(crc32(ByteSpan{buf}));
      }
    }(*mps[i], rx[i], i));
  }

  auto r = cl.run(threads);
  EXPECT_EQ(r.pending_roots, 0) << "deadlock: unfinished roots";

  Digest d;
  d.mix(r.events);
  for (int s = 0; s < cl.n_shards(); ++s) d.mix(cl.shard_engine(s).now());
  std::uint64_t reg_misses = 0;
  for (int i = 0; i < kNodes; ++i) {
    d.mix(rx[i].h);
    const auto& st = eps[i]->stats();
    d.mix(st.msgs_sent);
    d.mix(st.bytes_received);
    d.mix(st.packets_sent);
    d.mix(st.handler_starts);
    const auto& ns = cl.node(i).nic().stats();
    d.mix(ns.tx_packets);
    d.mix(ns.rx_packets);
    const auto& rs = cl.node(i).host().reg_cache().stats();
    d.mix(rs.hits);
    d.mix(rs.misses);
    d.mix(rs.evictions);
    d.mix(rs.pinned_bytes);
    reg_misses += rs.misses;
  }
  const auto fs = cl.fabric_stats();
  d.mix(fs.packets);
  d.mix(fs.payload_bytes);
  EXPECT_GT(reg_misses, 0u) << "rendezvous never took the RDMA path";
  return d.h;
}

// --- NIC-offloaded collective workload --------------------------------------
// Barrier/bcast/reduce run inside the NIC control programs: combining and
// fan-out forwarding are NIC-to-NIC packets crossing shard boundaries, the
// fold order is the tree's child order, and completions are polled. Every
// double produced, every combine/forward counter, and the trace stream
// must be bit-identical at any thread count. The full group spans all 8
// nodes; a second group over {0, 3, 5, 6} keeps a sparse reduction tree
// whose every edge crosses shards in the maximally-sharded run.
constexpr int kCollNodes = 8;

std::uint64_t run_coll_workload(int threads, bool lossy) {
  auto params = net::ppro_fm2_cluster(kCollNodes);
  if (lossy) params.nic.reliable_link = true;
  net::ParallelCluster cl(params);
  std::vector<std::unique_ptr<fault::PlanInjector>> injectors;
  if (lossy) {
    injectors = fault::arm(cl, fault::FaultPlan::lossy(0.03, kSeed));
  }
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  for (int i = 0; i < kCollNodes; ++i) {
    eps.push_back(
        std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
  }
  net::CollGroupSpec all;
  all.id = 1;
  for (int i = 0; i < kCollNodes; ++i) all.members.push_back(i);
  all.radix = 2;
  net::CollGroupSpec sparse;
  sparse.id = 2;
  sparse.members = {3, 0, 5, 6};  // root 3: tree edges all cross shards
  sparse.radix = 2;

  std::vector<std::vector<double>> sums(kCollNodes);
  std::vector<Bytes> bc(kCollNodes, Bytes(128));
  std::vector<double> sparse_out(kCollNodes, 0.0);
  for (int i = 0; i < kCollNodes; ++i) {
    const bool in_sparse = i == 0 || i == 3 || i == 5 || i == 6;
    cl.spawn_on(i, [](fm2::Endpoint& ep, net::CollGroupSpec a,
                      net::CollGroupSpec sp, bool member, int rank,
                      std::vector<double>& sum, MutByteSpan bcast,
                      double& sout) -> Task<void> {
      co_await ep.coll_join(a);
      if (member) co_await ep.coll_join(sp);
      for (int r = 0; r < 3; ++r) {
        double v[2] = {rank * 1.25 + r, double(rank % 3)};
        co_await ep.coll_allreduce(a.id, std::span<double>{v, 2},
                                   fm2::Endpoint::CollRed::kSum);
        sum.push_back(v[0]);
        sum.push_back(v[1]);
        co_await ep.coll_barrier(a.id);
      }
      if (rank == 0) {
        Bytes src = pattern_bytes(42, bcast.size());
        std::copy(src.begin(), src.end(), bcast.begin());
      }
      co_await ep.coll_bcast(a.id, bcast);
      if (member) {
        double s = 1.0 + rank;
        co_await ep.coll_allreduce(sp.id, std::span<double>{&s, 1},
                                   fm2::Endpoint::CollRed::kMax);
        sout = s;
      }
      double red[2] = {double(rank), -double(rank)};
      co_await ep.coll_reduce(a.id, std::span<double>{red, 2},
                              fm2::Endpoint::CollRed::kSum);
      if (rank == 0) {
        sum.push_back(red[0]);
        sum.push_back(red[1]);
      }
    }(*eps[i], all, sparse, in_sparse, i, sums[i], MutByteSpan{bc[i]},
      sparse_out[i]));
  }

  auto r = cl.run(threads);
  EXPECT_EQ(r.pending_roots, 0) << "deadlock: unfinished roots";

  Digest d;
  d.mix(r.events);
  for (int s = 0; s < cl.n_shards(); ++s) d.mix(cl.shard_engine(s).now());
  for (int i = 0; i < kCollNodes; ++i) {
    d.mix(crc32(ByteSpan{reinterpret_cast<const std::byte*>(sums[i].data()),
                         sums[i].size() * sizeof(double)}));
    d.mix(crc32(ByteSpan{bc[i]}));
    std::uint64_t sbits;
    std::memcpy(&sbits, &sparse_out[i], sizeof(sbits));
    d.mix(sbits);
    const auto& ns = cl.node(i).nic().stats();
    d.mix(ns.coll_rx_packets);
    d.mix(ns.coll_combines);
    d.mix(ns.coll_forwards);
    d.mix(ns.coll_completions);
    d.mix(ns.coll_orphaned);
    d.mix(ns.coll_stale);
    d.mix(ns.tx_packets);
    d.mix(ns.retransmissions);
    d.mix(eps[i]->stats().handler_starts);
    EXPECT_EQ(cl.node(i).nic().coll_pending(), 0u) << "node " << i;
  }
  const auto fs = cl.fabric_stats();
  d.mix(fs.packets);
  d.mix(fs.payload_bytes);
  d.mix(fs.dropped);
  d.mix(fs.corrupted);
  for (const auto& inj : injectors) {
    d.mix(inj->stats().packets_seen);
    d.mix(inj->stats().drops);
  }
  return d.h;
}

// --- FM 1.x workload --------------------------------------------------------
// The same all-to-all shape on FM 1.x endpoints: whole-message synchronous
// handlers, FM-side reassembly, and credit hunting in a blocked sender, on
// 8 hosts. Each node waits on its own receive counter only.
constexpr int kFm1Nodes = 8;
constexpr int kFm1MsgsPerPeer = 6;
constexpr std::size_t kFm1Sizes[] = {16, 100, 512, 2048};

std::uint64_t run_fm1_workload(const net::ClusterParams& params, int shards,
                               int threads) {
  net::ParallelCluster cl(params, shards);
  std::vector<std::unique_ptr<fm1::Endpoint>> eps;
  std::vector<Digest> rx(kFm1Nodes);
  std::vector<int> got(kFm1Nodes, 0);
  for (int i = 0; i < kFm1Nodes; ++i) {
    eps.push_back(
        std::make_unique<fm1::Endpoint>(cl.node(i), cl.fabric_of(i)));
    eps[i]->register_handler(0, [&rx, &got, i](int src, ByteSpan data) {
      rx[i].mix(crc32(data));
      rx[i].mix(static_cast<std::uint64_t>(src));
      ++got[i];
    });
  }
  for (int i = 0; i < kFm1Nodes; ++i) {
    cl.spawn_on(i, [](fm1::Endpoint& ep, int self) -> Task<void> {
      for (int m = 0; m < kFm1MsgsPerPeer; ++m) {
        for (int j = 0; j < kFm1Nodes; ++j) {
          if (j == self) continue;
          Bytes msg =
              pattern_bytes(static_cast<std::uint64_t>(self) * 131 + m,
                            kFm1Sizes[(m + j) % 4]);
          co_await ep.send(j, 0, ByteSpan{msg});
        }
      }
    }(*eps[i], i));
    cl.spawn_on(i, [](fm1::Endpoint& ep, int& g) -> Task<void> {
      co_await ep.poll_until(
          [&g] { return g == kFm1MsgsPerPeer * (kFm1Nodes - 1); });
    }(*eps[i], got[i]));
  }

  auto r = cl.run(threads);
  EXPECT_EQ(r.pending_roots, 0) << "deadlock: unfinished roots";

  Digest d;
  d.mix(r.events);
  for (int s = 0; s < cl.n_shards(); ++s) d.mix(cl.shard_engine(s).now());
  for (int i = 0; i < kFm1Nodes; ++i) {
    d.mix(rx[i].h);
    d.mix(static_cast<std::uint64_t>(got[i]));
    const auto& st = eps[i]->stats();
    d.mix(st.msgs_sent);
    d.mix(st.msgs_received);
    d.mix(st.bytes_received);
    d.mix(st.packets_sent);
    d.mix(st.credit_stall_events);
    d.mix(st.credit_packets_sent);
    const auto& ns = cl.node(i).nic().stats();
    d.mix(ns.tx_packets);
    d.mix(ns.rx_packets);
  }
  const auto fs = cl.fabric_stats();
  d.mix(fs.packets);
  d.mix(fs.payload_bytes);
  return d.h;
}

// FM 1.x across shards: at 4 and 8 shards the simulation is the same at
// every thread count, on both platform presets.
TEST(ParallelDeterminism, Fm1BitIdenticalAcrossThreadCounts) {
  for (const net::ClusterParams& p : {net::sparc_fm1_cluster(kFm1Nodes),
                                      net::ppro_fm2_cluster(kFm1Nodes)}) {
    for (int shards : {4, 8}) {
      const std::uint64_t one = run_fm1_workload(p, shards, 1);
      EXPECT_EQ(run_fm1_workload(p, shards, 2), one) << shards << " shards";
      EXPECT_EQ(run_fm1_workload(p, shards, 4), one) << shards << " shards";
    }
  }
}

TEST(ParallelDeterminism, Fm1MatchesPinnedValue) {
  // FM 1.x all-to-all on the 1-shard SPARC cluster. See the header
  // comment before re-pinning.
  constexpr std::uint64_t kPinned = 0xd72cd08a6979ffc9ull;
  const std::uint64_t got =
      run_fm1_workload(net::sparc_fm1_cluster(kFm1Nodes), 1, 1);
  EXPECT_EQ(got, kPinned) << "digest changed; got 0x" << std::hex << got;
}

TEST(ParallelDeterminism, NicCollectivesBitIdenticalAcrossThreadCounts) {
  const std::uint64_t serial = run_coll_workload(1, false);
  EXPECT_EQ(run_coll_workload(2, false), serial);
  EXPECT_EQ(run_coll_workload(4, false), serial);
}

TEST(ParallelDeterminism, NicCollectivesLossyBitIdenticalAcrossThreadCounts) {
  const std::uint64_t serial = run_coll_workload(1, true);
  EXPECT_EQ(run_coll_workload(2, true), serial);
  EXPECT_EQ(run_coll_workload(4, true), serial);
}

TEST(ParallelDeterminism, RendezvousRdmaBitIdenticalAcrossThreadCounts) {
  const std::uint64_t serial = run_rdzv_workload(1);
  EXPECT_EQ(run_rdzv_workload(2), serial);
  EXPECT_EQ(run_rdzv_workload(4), serial);
}

TEST(ParallelDeterminism, CleanBitIdenticalAcrossThreadCounts) {
  const std::uint64_t serial = run_workload(1, false);
  EXPECT_EQ(run_workload(2, false), serial);
  EXPECT_EQ(run_workload(4, false), serial);
}

TEST(ParallelDeterminism, LossyFaultPlanBitIdenticalAcrossThreadCounts) {
  const std::uint64_t serial = run_workload(1, true);
  EXPECT_EQ(run_workload(2, true), serial);
  EXPECT_EQ(run_workload(4, true), serial);
}

TEST(ParallelDeterminism, GoldenTraceBitIdenticalAcrossThreadCounts) {
  std::uint64_t t1 = 0, t2 = 0, t4 = 0;
  const std::uint64_t d1 = run_workload(1, false, &t1);
  const std::uint64_t d2 = run_workload(2, false, &t2);
  const std::uint64_t d4 = run_workload(4, false, &t4);
  EXPECT_EQ(d2, d1);
  EXPECT_EQ(d4, d1);
  EXPECT_EQ(t2, t1);
  EXPECT_EQ(t4, t1);
  EXPECT_NE(t1, Digest{}.h) << "trace digest must cover events";
}

TEST(ParallelDeterminism, MatchesPinnedValues) {
  // Re-pinned for the published-horizon scheduler: the window count left
  // the digest (it is now scheduling-dependent) and shard clocks stay at
  // each shard's last executed event instead of being bumped to barrier
  // window boundaries, so the final now() values changed. The lossy value
  // depends on fault::arm's per-shard seeding (shard s draws from
  // plan seed ^ phi*s). See the header comment before re-pinning.
  constexpr std::uint64_t kPinnedClean = 0xce85c6163cef0b36ull;
  constexpr std::uint64_t kPinnedLossy = 0xfb65a3338369c6daull;
  const std::uint64_t clean = run_workload(1, false);
  const std::uint64_t lossy = run_workload(1, true);
  EXPECT_EQ(clean, kPinnedClean)
      << "clean digest changed; got 0x" << std::hex << clean;
  EXPECT_EQ(lossy, kPinnedLossy)
      << "lossy digest changed; got 0x" << std::hex << lossy;
}

// --- A lone worker never parks --------------------------------------------
// With one worker nobody else can make progress, so after a pass without
// progress the worker checks quiescence itself instead of spinning,
// yielding and parking on the condvar. A 1-thread run therefore reports no
// parks, on one shard and on eight, and simulates exactly what it did when
// it parked once per run (events and digest pinned from then).
struct LoneRun {
  net::ParallelCluster::RunResult run;
  std::uint64_t digest = 0;
};

LoneRun run_lone_worker(int shards) {
  constexpr int kHosts = 8;
  constexpr int kPerPair = 3;
  net::ParallelCluster cl(net::ppro_fm2_cluster(kHosts), shards);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  std::vector<Digest> rx(kHosts);
  std::vector<int> got(kHosts, 0);
  std::vector<Bytes> sink(kHosts, Bytes(kMaxSize));
  for (int i = 0; i < kHosts; ++i) {
    eps.push_back(
        std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
    eps[i]->register_handler(
        0, [&rx, &sink, &got, i](fm2::RecvStream& s,
                                 int src) -> fm2::HandlerTask {
          const std::size_t n = s.msg_bytes();
          if (n > 0) co_await s.receive(sink[i].data(), n);
          rx[i].mix(crc32(ByteSpan{sink[i].data(), n}) ^
                    static_cast<std::uint64_t>(src));
          ++got[i];
        });
  }
  for (int i = 0; i < kHosts; ++i) {
    cl.spawn_on(i, [](fm2::Endpoint& ep, int self) -> Task<void> {
      for (int m = 0; m < kPerPair; ++m) {
        for (int j = 0; j < kHosts; ++j) {
          if (j == self) continue;
          Bytes msg = pattern_bytes(static_cast<std::uint64_t>(self) * 31 + m,
                                    kSizes[(m + j) % 4]);
          co_await ep.send(j, 0, ByteSpan{msg});
        }
      }
    }(*eps[i], i));
    cl.spawn_on(i, [](fm2::Endpoint& ep, int& g) -> Task<void> {
      co_await ep.poll_until([&g] { return g == kPerPair * (kHosts - 1); });
    }(*eps[i], got[i]));
  }
  LoneRun out;
  out.run = cl.run(1);
  Digest d;
  d.mix(out.run.events);
  for (int s = 0; s < cl.n_shards(); ++s) d.mix(cl.shard_engine(s).now());
  for (int i = 0; i < kHosts; ++i) {
    d.mix(rx[i].h);
    d.mix(eps[i]->stats().packets_sent);
    d.mix(eps[i]->stats().credit_packets_sent);
  }
  out.digest = d.h;
  return out;
}

TEST(ParallelDeterminism, LoneWorkerNeverParks) {
  const LoneRun one = run_lone_worker(1);
  EXPECT_EQ(one.run.pending_roots, 0);
  EXPECT_EQ(one.run.barrier_crossings, 0u);
  EXPECT_EQ(one.run.events, 3934u);
  EXPECT_EQ(one.digest, 0x29e683f9abcf3f93ull) << std::hex << one.digest;

  const LoneRun eight = run_lone_worker(8);
  EXPECT_EQ(eight.run.pending_roots, 0);
  EXPECT_EQ(eight.run.barrier_crossings, 0u);
  EXPECT_EQ(eight.run.events, 4168u);
  EXPECT_EQ(eight.digest, 0xf27e80cc0419c77bull) << std::hex << eight.digest;
}

}  // namespace
}  // namespace fmx
