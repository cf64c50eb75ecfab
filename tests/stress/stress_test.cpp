// Seeded randomized stress: rings of mixed MPI traffic + one-sided shmem
// ops over shared endpoints, with and without injected corruption, checking
// end-to-end integrity, ordering, counter conservation, and quiescence.
#include <gtest/gtest.h>

#include <memory>

#include "fault/injector.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "shmem/shmem.hpp"
#include "sim/random.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

struct Node {
  Node(net::ParallelCluster& cluster, int id, mpi::MpiFm2Options mpi_opt)
      : ep(cluster.node(id), cluster.fabric_of(id)),
        mpi(ep, mpi_opt),
        shm(ep) {}
  fm2::Endpoint ep;
  mpi::MpiFm2 mpi;
  shmem::ShmemCtx shm;
};

class StressTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(StressTest, MixedLayerRingWorkload) {
  auto [seed, lossy] = GetParam();
  net::ClusterParams p = net::ppro_fm2_cluster(4);
  p.nic.reliable_link = lossy;
  net::ParallelCluster cluster(p, 1);
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<fault::PlanInjector>> injectors;
  if (lossy) {
    fault::FaultPlan plan = fault::FaultPlan::clean();
    plan.wire.corrupt = 0.05;
    injectors = fault::arm(cluster, plan);
  }
  mpi::MpiFm2Options mo;
  mo.eager_threshold = 4096;  // exercise both protocols
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<Node>(cluster, i, mo));
  }

  constexpr int kOps = 60;
  int finished = 0;
  for (int me = 0; me < 4; ++me) {
    eng.spawn([](Node& n, int my, int sd, int& fin) -> Task<void> {
      const int next = (my + 1) % 4;
      const int prev = (my + 3) % 4;
      // Sender and receiver derive the same op sequence from the shared
      // seed + the directed edge, so they agree without coordination.
      sim::Rng tx_rng(sd * 100 + my);
      sim::Rng rx_rng(sd * 100 + prev);
      for (int op = 0; op < kOps; ++op) {
        std::size_t tx_size = tx_rng.uniform(1, 9000);
        int tx_tag = static_cast<int>(tx_rng.uniform(0, 3));
        Bytes m = pattern_bytes(my * 10'000 + op, tx_size);
        std::size_t rx_size = rx_rng.uniform(1, 9000);
        int rx_tag = static_cast<int>(rx_rng.uniform(0, 3));
        Bytes buf(rx_size);
        mpi::Status st;
        // sendrecv posts the receive before sending — the safe SPMD idiom;
        // a ring of plain rendezvous sends would (correctly!) deadlock.
        co_await n.mpi.sendrecv(ByteSpan{m}, next, tx_tag, MutByteSpan{buf},
                                prev, rx_tag, &st);
        EXPECT_EQ(st.count, rx_size);
        EXPECT_EQ(pattern_mismatch(prev * 10'000 + op, 0, ByteSpan{buf}),
                  -1)
            << "edge " << prev << "->" << my << " op " << op;
        // Sprinkle one-sided ops: increment a counter on `next`.
        if (op % 5 == 0) {
          (void)co_await n.shm.fetch_add(next, 0, 1);
        }
      }
      co_await n.mpi.barrier();
      ++fin;
    }(*nodes[me], me, seed, finished));
  }
  cluster.run();
  EXPECT_EQ(finished, 4);
  EXPECT_EQ(eng.pending_roots(), 0);
  // Each node incremented its successor 12 times (kOps/5 rounded up).
  for (int i = 0; i < 4; ++i) {
    std::int64_t v;
    std::memcpy(&v, nodes[i]->shm.heap().data(), 8);
    EXPECT_EQ(v, 12);
  }
  if (lossy) {
    EXPECT_GT(cluster.fabric_of(0).stats().corrupted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StressTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Bool()),
    [](const auto& pinfo) {
      return "seed" + std::to_string(std::get<0>(pinfo.param)) +
             (std::get<1>(pinfo.param) ? "_lossy" : "_clean");
    });

TEST(StressExtract, RandomBudgetsNeverLoseData) {
  // Receiver extracts with chaotic byte budgets while the sender floods:
  // receiver flow control must only delay, never corrupt or drop.
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  fm2::Endpoint tx(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint rx(cluster.node(1), cluster.fabric_of(1));
  constexpr int kMsgs = 60;
  int seen = 0;
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    Bytes buf(s.msg_bytes());
    co_await s.receive(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(seen, 0, ByteSpan{buf}), -1);
    ++seen;
  });
  eng.spawn([](fm2::Endpoint& ep) -> Task<void> {
    sim::Rng rng(9);
    for (std::size_t i = 0; i < kMsgs; ++i) {
      Bytes m = pattern_bytes(i, rng.uniform(1, 12'000));
      co_await ep.send(1, 0, ByteSpan{m});
    }
  }(tx));
  eng.spawn([](fm2::Endpoint& ep, int& n) -> Task<void> {
    sim::Rng rng(10);
    while (n < kMsgs) {
      (void)co_await ep.extract(rng.uniform(16, 5'000));
      if (n >= kMsgs) break;
      co_await ep.host().compute(sim::ns(rng.uniform(100, 20'000)));
      co_await ep.wait_for_traffic();
    }
  }(rx, seen));
  cluster.run();
  EXPECT_EQ(seen, kMsgs);
  EXPECT_EQ(eng.pending_roots(), 0);
}

}  // namespace
}  // namespace fmx
