// Integration: several user-level libraries layered over ONE FM 2.x
// endpoint per node — the deployment model of the real Fast Messages
// (one FM instance per process; each library owns handler ids). Any
// library's extract drives everyone's handlers, so progress is shared.
#include <gtest/gtest.h>

#include <memory>

#include "ga/global_array.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "shmem/shmem.hpp"
#include "sockets/socket_fm.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

struct Node {
  Node(net::ParallelCluster& cluster, int id)
      : ep(cluster.node(id), cluster.fabric_of(id)),
        mpi(ep),
        sock(ep),
        shm(ep) {}
  fm2::Endpoint ep;
  mpi::MpiFm2 mpi;
  sock::SocketFm sock;
  shmem::ShmemCtx shm;
};

TEST(LayerComposition, MpiSocketsShmemShareOneEndpoint) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  Node n0(cluster, 0), n1(cluster, 1);
  n1.sock.listen(80);

  bool mpi_done = false, sock_done = false, shm_done = false;

  // MPI traffic node0 -> node1.
  eng.spawn([](mpi::Comm& c) -> Task<void> {
    for (std::uint32_t i = 0; i < 20; ++i) {
      Bytes m = pattern_bytes(i, 700);
      co_await c.send(ByteSpan{m}, 1, 5);
    }
  }(n0.mpi));
  eng.spawn([](mpi::Comm& c, bool& d) -> Task<void> {
    for (std::uint32_t i = 0; i < 20; ++i) {
      Bytes buf(700);
      co_await c.recv(MutByteSpan{buf}, 0, 5);
      EXPECT_EQ(pattern_mismatch(i, 0, ByteSpan{buf}), -1);
    }
    d = true;
  }(n1.mpi, mpi_done));

  // A socket stream in the same direction, interleaved on the same wire.
  eng.spawn([](sock::SocketFm& s) -> Task<void> {
    sock::Socket* c = co_await s.connect(1, 80);
    Bytes msg = pattern_bytes(999, 50'000);
    co_await c->send(ByteSpan{msg});
    co_await c->close();
  }(n0.sock));
  eng.spawn([](sock::SocketFm& s, bool& d) -> Task<void> {
    sock::Socket* c = co_await s.accept(80);
    Bytes buf(50'000);
    co_await c->recv_exact(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(999, 0, ByteSpan{buf}), -1);
    d = true;
  }(n1.sock, sock_done));

  // One-sided puts and a remote atomic from node0 into node1's heap.
  eng.spawn([](shmem::ShmemCtx& me, fm2::Endpoint& target,
               bool& d) -> Task<void> {
    Bytes data = pattern_bytes(55, 4'000);
    co_await me.put(1, 0, ByteSpan{data});
    co_await me.quiet();
    for (int i = 0; i < 5; ++i) (void)co_await me.fetch_add(1, 8'000, 2);
    d = true;
    target.kick();
  }(n0.shm, n1.ep, shm_done));
  // One-sided targets must keep extracting (shmem progress rule): node 1
  // serves until the initiator reports completion.
  eng.spawn([](shmem::ShmemCtx& me, bool& d) -> Task<void> {
    co_await me.poll_until([&] { return d; });
  }(n1.shm, shm_done));

  ASSERT_TRUE(fmx::test::run_to_exhaustion(cluster));
  EXPECT_TRUE(mpi_done);
  EXPECT_TRUE(sock_done);
  EXPECT_TRUE(shm_done);
  EXPECT_EQ(pattern_mismatch(55, 0,
                             ByteSpan{n1.shm.heap()}.subspan(0, 4'000)),
            -1);
  std::int64_t counter;
  std::memcpy(&counter, n1.shm.heap().data() + 8'000, 8);
  EXPECT_EQ(counter, 10);
  // All traffic shared one endpoint: per-layer stats prove multiplexing.
  EXPECT_EQ(n1.mpi.stats().recvs, 20u);
  EXPECT_GT(n1.sock.stats().bytes_received, 0u);
}

TEST(LayerComposition, CrossLayerProgressDriving) {
  // A blocked MPI recv's progress loop must also serve shmem requests
  // arriving at the same node — shared extraction is what makes one-sided
  // ops usable without a dedicated progress thread.
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  Node n0(cluster, 0), n1(cluster, 1);

  bool remote_done = false;
  // Node 1 blocks in MPI recv (nothing will arrive for a while).
  eng.spawn([](mpi::Comm& c) -> Task<void> {
    Bytes buf(64);
    co_await c.recv(MutByteSpan{buf}, 0, 9);  // blocks, driving extract
    EXPECT_EQ(pattern_mismatch(3, 0, ByteSpan{buf}), -1);
  }(n1.mpi));
  // Node 0 does one-sided traffic against node 1 *then* unblocks the recv.
  eng.spawn([](shmem::ShmemCtx& shm, mpi::Comm& c, bool& d) -> Task<void> {
    Bytes data = pattern_bytes(77, 1'000);
    co_await shm.put(1, 100, ByteSpan{data});
    co_await shm.quiet();  // needs node 1 to extract: its MPI recv does it
    Bytes out(1'000);
    co_await shm.get(1, 100, MutByteSpan{out});
    EXPECT_EQ(pattern_mismatch(77, 0, ByteSpan{out}), -1);
    d = true;
    Bytes m = pattern_bytes(3, 64);
    co_await c.send(ByteSpan{m}, 1, 9);
  }(n0.shm, n0.mpi, remote_done));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(cluster));
  EXPECT_TRUE(remote_done);
}

TEST(LayerComposition, FourNodesCollectivesPlusOneSided) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(4), 1);
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<Node>(cluster, i));
  }
  int done = 0;
  for (int r = 0; r < 4; ++r) {
    eng.spawn([](Node& me, int rank, int& d) -> Task<void> {
      // Mix a collective with one-sided puts to the next node over.
      std::vector<double> v{static_cast<double>(rank)};
      co_await me.mpi.allreduce_sum(std::span<double>{v});
      EXPECT_DOUBLE_EQ(v[0], 6.0);  // 0+1+2+3
      Bytes b = pattern_bytes(rank, 512);
      co_await me.shm.put((rank + 1) % 4, 0, ByteSpan{b});
      co_await me.shm.quiet();
      co_await me.mpi.barrier();
      ++d;
    }(*nodes[r], r, done));
  }
  ASSERT_TRUE(fmx::test::run_to_exhaustion(cluster));
  EXPECT_EQ(done, 4);
  for (int r = 0; r < 4; ++r) {
    int writer = (r + 3) % 4;
    EXPECT_EQ(pattern_mismatch(writer, 0,
                               ByteSpan{nodes[r]->shm.heap()}.subspan(0, 512)),
              -1);
  }
}

}  // namespace
}  // namespace fmx
