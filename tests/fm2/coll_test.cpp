// NIC-offloaded collectives, end to end over fm2::Endpoint: join/barrier/
// bcast/reduce/allreduce semantics, the one-host-interrupt contract
// (handler_starts stays 0 — completion is polled, interior tree steps run
// NIC-to-NIC), epoch pipelining of back-to-back operations, and NIC-state
// quiescence.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx::fm2 {
namespace {

using sim::Engine;
using sim::Task;

struct World {
  explicit World(net::ClusterParams p, Config cfg = {}) : cluster(p, 1) {
    for (int i = 0; i < p.n_hosts; ++i) {
      eps.push_back(std::make_unique<Endpoint>(cluster.node(i),
                                               cluster.fabric_of(i), cfg));
    }
  }
  Endpoint& ep(int i) { return *eps[i]; }
  net::Nic& nic(int i) { return cluster.node(i).nic(); }

  net::ParallelCluster cluster;
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<Endpoint>> eps;
};

net::CollGroupSpec everyone(int n, int radix = 2) {
  net::CollGroupSpec spec;
  spec.id = 1;
  for (int i = 0; i < n; ++i) spec.members.push_back(i);
  spec.radix = radix;
  return spec;
}

TEST(Coll, BarrierCompletesOnEveryMember) {
  constexpr int kN = 8;
  World w(net::ppro_fm2_cluster(kN));
  int done = 0;
  for (int i = 0; i < kN; ++i) {
    w.eng.spawn([](Endpoint& ep, net::CollGroupSpec spec,
                   int& d) -> Task<void> {
      co_await ep.coll_join(spec);
      co_await ep.coll_barrier(spec.id);
      ++d;
    }(w.ep(i), everyone(kN), done));
  }
  ASSERT_TRUE(test::run_to_exhaustion(w.cluster));
  EXPECT_EQ(done, kN);
  for (int i = 0; i < kN; ++i) {
    // join + barrier: exactly two host interruptions, zero handler starts
    // (completion is polled; no interior step touches the host).
    EXPECT_EQ(w.nic(i).stats().coll_completions, 2u) << "node " << i;
    EXPECT_EQ(w.ep(i).stats().handler_starts, 0u) << "node " << i;
    EXPECT_EQ(w.nic(i).coll_pending(), 0u) << "node " << i;
  }
}

TEST(Coll, BarrierHoldsBackEarlyArrivers) {
  // Last joiner delays; nobody may pass the barrier before it enters.
  constexpr int kN = 4;
  World w(net::ppro_fm2_cluster(kN));
  sim::Ps straggler_entry = 0;
  for (int i = 0; i < kN; ++i) {
    w.eng.spawn([](Engine& eng, Endpoint& ep, net::CollGroupSpec spec,
                   int rank, sim::Ps& entry) -> Task<void> {
      co_await ep.coll_join(spec);
      if (rank == 3) {
        co_await eng.delay(sim::us(300));
        entry = eng.now();
      }
      co_await ep.coll_barrier(spec.id);
      EXPECT_GE(eng.now(), entry);
    }(w.eng, w.ep(i), everyone(kN), i, straggler_entry));
  }
  ASSERT_TRUE(test::run_to_exhaustion(w.cluster));
  EXPECT_GT(straggler_entry, 0);
}

TEST(Coll, BcastDeliversRootBytes) {
  constexpr int kN = 6;
  constexpr std::size_t kBytes = 96;
  World w(net::ppro_fm2_cluster(kN));
  Bytes src = pattern_bytes(5, kBytes);
  std::vector<Bytes> dst(kN, Bytes(kBytes));
  dst[0] = src;  // root broadcasts its own buffer
  for (int i = 0; i < kN; ++i) {
    w.eng.spawn([](Endpoint& ep, net::CollGroupSpec spec,
                   MutByteSpan buf) -> Task<void> {
      co_await ep.coll_join(spec);
      co_await ep.coll_bcast(spec.id, buf);
    }(w.ep(i), everyone(kN), MutByteSpan{dst[i]}));
  }
  ASSERT_TRUE(test::run_to_exhaustion(w.cluster));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(dst[i], src) << "node " << i;
}

TEST(Coll, ReduceSumLandsAtRootOnly) {
  constexpr int kN = 5;
  World w(net::ppro_fm2_cluster(kN));
  std::vector<std::vector<double>> data(kN);
  for (int i = 0; i < kN; ++i) data[i] = {double(i + 1), 10.0 * (i + 1)};
  for (int i = 0; i < kN; ++i) {
    w.eng.spawn([](Endpoint& ep, net::CollGroupSpec spec,
                   std::span<double> d) -> Task<void> {
      co_await ep.coll_join(spec);
      co_await ep.coll_reduce(spec.id, d, Endpoint::CollRed::kSum);
    }(w.ep(i), everyone(kN), std::span<double>{data[i]}));
  }
  ASSERT_TRUE(test::run_to_exhaustion(w.cluster));
  EXPECT_DOUBLE_EQ(data[0][0], 1 + 2 + 3 + 4 + 5);
  EXPECT_DOUBLE_EQ(data[0][1], 10 + 20 + 30 + 40 + 50);
  for (int i = 1; i < kN; ++i) {
    EXPECT_DOUBLE_EQ(data[i][0], i + 1) << "non-root " << i << " written";
  }
}

TEST(Coll, AllreduceSumAndMaxEverywhere) {
  constexpr int kN = 7;
  World w(net::ppro_fm2_cluster(kN));
  std::vector<std::vector<double>> s(kN), m(kN);
  for (int i = 0; i < kN; ++i) {
    s[i] = {double(i), 1.0};
    m[i] = {double((i * 3) % kN), -double(i)};
  }
  for (int i = 0; i < kN; ++i) {
    w.eng.spawn([](Endpoint& ep, net::CollGroupSpec spec,
                   std::span<double> sum,
                   std::span<double> mx) -> Task<void> {
      co_await ep.coll_join(spec);
      co_await ep.coll_allreduce(spec.id, sum, Endpoint::CollRed::kSum);
      co_await ep.coll_allreduce(spec.id, mx, Endpoint::CollRed::kMax);
    }(w.ep(i), everyone(kN, 3), std::span<double>{s[i]},
      std::span<double>{m[i]}));
  }
  ASSERT_TRUE(test::run_to_exhaustion(w.cluster));
  for (int i = 0; i < kN; ++i) {
    EXPECT_DOUBLE_EQ(s[i][0], 0 + 1 + 2 + 3 + 4 + 5 + 6) << i;
    EXPECT_DOUBLE_EQ(s[i][1], kN) << i;
    EXPECT_DOUBLE_EQ(m[i][0], 6) << i;  // max over (i*3) % 7
    EXPECT_DOUBLE_EQ(m[i][1], 0) << i;  // max over -i
  }
}

TEST(Coll, PipelinedEpochsStayOrdered) {
  // Back-to-back barriers and reductions; epochs must retire in order on
  // every member, and per-epoch sums must not bleed into each other.
  constexpr int kN = 4;
  constexpr int kRounds = 5;
  World w(net::ppro_fm2_cluster(kN));
  std::vector<std::vector<double>> got(kN,
                                       std::vector<double>(kRounds, 0));
  for (int i = 0; i < kN; ++i) {
    w.eng.spawn([](Endpoint& ep, net::CollGroupSpec spec, int rank,
                   std::span<double> out) -> Task<void> {
      co_await ep.coll_join(spec);
      for (int r = 0; r < int(out.size()); ++r) {
        double v = rank + 100.0 * r;
        co_await ep.coll_allreduce(spec.id, std::span<double>{&v, 1},
                                   Endpoint::CollRed::kSum);
        out[r] = v;
        co_await ep.coll_barrier(spec.id);
      }
    }(w.ep(i), everyone(kN), i, std::span<double>{got[i]}));
  }
  ASSERT_TRUE(test::run_to_exhaustion(w.cluster));
  for (int i = 0; i < kN; ++i) {
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_DOUBLE_EQ(got[i][r], (0 + 1 + 2 + 3) + 400.0 * r)
          << "node " << i << " round " << r;
    }
  }
  // join + kRounds * (allreduce + barrier) completions each.
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(w.nic(i).stats().coll_completions, 1u + 2u * kRounds);
  }
}

TEST(Coll, SubgroupWithNonZeroRootCoexists) {
  // A second group over a strict subset, rooted off node 0, running
  // concurrently with full-group traffic on group 1.
  constexpr int kN = 6;
  World w(net::ppro_fm2_cluster(kN));
  net::CollGroupSpec sub;
  sub.id = 2;
  sub.members = {3, 1, 5};  // root 3
  sub.radix = 2;
  std::vector<double> subsum = {0, 0, 0, 3.0, 0, 5.0};
  subsum[1] = 1.0;
  for (int i = 0; i < kN; ++i) {
    const bool in_sub = i == 1 || i == 3 || i == 5;
    w.eng.spawn([](Endpoint& ep, net::CollGroupSpec g1,
                   net::CollGroupSpec g2, bool sub_member,
                   double* v) -> Task<void> {
      co_await ep.coll_join(g1);
      if (sub_member) co_await ep.coll_join(g2);
      co_await ep.coll_barrier(g1.id);
      if (sub_member)
        co_await ep.coll_allreduce(g2.id, std::span<double>{v, 1},
                                   Endpoint::CollRed::kSum);
      co_await ep.coll_barrier(g1.id);
    }(w.ep(i), everyone(kN), sub, in_sub, &subsum[i]));
  }
  ASSERT_TRUE(test::run_to_exhaustion(w.cluster));
  EXPECT_DOUBLE_EQ(subsum[1], 9.0);
  EXPECT_DOUBLE_EQ(subsum[3], 9.0);
  EXPECT_DOUBLE_EQ(subsum[5], 9.0);
  EXPECT_DOUBLE_EQ(subsum[0], 0.0);  // outsiders untouched
}

TEST(Coll, InteriorStepsRecordNicTraceNotHostHandlers) {
  constexpr int kN = 8;
  World w(net::ppro_fm2_cluster(kN));
  int done = 0;
  for (int i = 0; i < kN; ++i) {
    w.eng.spawn([](Endpoint& ep, net::CollGroupSpec spec,
                   int& d) -> Task<void> {
      co_await ep.coll_join(spec);
      double v = 1.0;
      co_await ep.coll_allreduce(spec.id, std::span<double>{&v, 1},
                                 Endpoint::CollRed::kSum);
      EXPECT_DOUBLE_EQ(v, 8.0);
      ++d;
    }(w.ep(i), everyone(kN), done));
  }
  ASSERT_TRUE(test::run_to_exhaustion(w.cluster));
  EXPECT_EQ(done, kN);
  std::uint64_t combines = 0, forwards = 0;
  for (int i = 0; i < kN; ++i) {
    combines += w.nic(i).stats().coll_combines;
    forwards += w.nic(i).stats().coll_forwards;
    EXPECT_EQ(w.ep(i).stats().handler_starts, 0u);
    EXPECT_EQ(w.ep(i).stats().msgs_received, 0u);
  }
  // Up-sweep folds one arrival per tree edge per op (join's fold is
  // empty but still an arrival); down-sweep forwards once per edge.
  EXPECT_EQ(combines, 2u * (kN - 1));
  // join: up (n-1) + down (n-1); allreduce: up (n-1) + down (n-1).
  EXPECT_EQ(forwards, 4u * (kN - 1));
}

}  // namespace
}  // namespace fmx::fm2
