// Structural regression net for the cost story every figure depends on.
// These don't check absolute numbers — they check WHERE time and copies go,
// so a refactor that silently changes the protocol's data movement fails
// loudly even if bandwidth hardly moves.
#include <gtest/gtest.h>

#include <vector>

#include "mpi/mpi_fm1.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"

namespace fmx {
namespace {

using sim::Cost;
using sim::CostLedger;
using sim::Engine;
using sim::Task;

constexpr int kMsgs = 50;
constexpr std::size_t kSize = 2048;

struct Pair {
  CostLedger tx, rx;
};

Pair run_fm1() {
  net::ParallelCluster cluster(net::sparc_fm1_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  fm1::Endpoint tx(cluster.node(0), cluster.fabric_of(0));
  fm1::Endpoint rx(cluster.node(1), cluster.fabric_of(1));
  int got = 0;
  rx.register_handler(0, [&](int, ByteSpan) { ++got; });
  eng.spawn([](fm1::Endpoint& ep) -> Task<void> {
    Bytes m(kSize);
    for (int i = 0; i < kMsgs; ++i) co_await ep.send(1, 0, ByteSpan{m});
  }(tx));
  eng.spawn([](fm1::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == kMsgs; });
  }(rx, got));
  cluster.run();
  return {tx.host().ledger(), rx.host().ledger()};
}

// MpiT layers over an EndpointT (fm1::Endpoint or fm2::Endpoint).
template <typename EndpointT, typename MpiT>
Pair run_mpi(const net::ClusterParams& cp) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  EndpointT ep0(cluster.node(0), cluster.fabric_of(0));
  EndpointT ep1(cluster.node(1), cluster.fabric_of(1));
  MpiT tx(ep0), rx(ep1);
  eng.spawn([](mpi::Comm& c) -> Task<void> {
    Bytes m(kSize);
    for (int i = 0; i < kMsgs; ++i) co_await c.send(ByteSpan{m}, 1, 0);
  }(tx));
  eng.spawn([](mpi::Comm& c) -> Task<void> {
    std::vector<Bytes> bufs(kMsgs, Bytes(kSize));
    std::vector<mpi::Request> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      reqs.push_back(co_await c.irecv(MutByteSpan{bufs[i]}, 0, 0));
    }
    for (auto& r : reqs) co_await c.wait(r);
  }(rx));
  cluster.run();
  return {tx.fm().host().ledger(), rx.fm().host().ledger()};
}

double share(const CostLedger& l, Cost c) {
  return l.total() == 0 ? 0.0
                        : static_cast<double>(l.of(c)) /
                              static_cast<double>(l.total());
}

TEST(CostStructure, Fm1SenderIsPioBound) {
  auto p = run_fm1();
  // The Figure 3a claim: the I/O bus (programmed I/O) owns the send path.
  EXPECT_GT(share(p.tx, Cost::kPio), 0.75);
  EXPECT_EQ(p.tx.of(Cost::kCopy), 0u);  // PIO *is* the copy; no memcpy
}

TEST(CostStructure, Fm1ReceiverIsReassemblyBound) {
  auto p = run_fm1();
  // Multi-packet messages force staging reassembly (buffer management).
  EXPECT_GT(share(p.rx, Cost::kBufferMgmt), 0.6);
}

TEST(CostStructure, MpiFm1DrownsInCopies) {
  auto p = run_mpi<fm1::Endpoint, mpi::MpiFm1>(net::sparc_fm1_cluster(2));
  // §3.2: the interface forces memory-to-memory copies on both sides.
  EXPECT_GT(share(p.tx, Cost::kCopy), 0.4);
  EXPECT_GT(share(p.rx, Cost::kCopy), 0.5);
  // Receiver moves every payload byte at least 3x (reassembly, temp, user).
  EXPECT_GE(p.rx.copied_bytes(), 3u * kMsgs * kSize);
}

TEST(CostStructure, MpiFm2MovesEachByteOncePerSide) {
  auto p = run_mpi<fm2::Endpoint, mpi::MpiFm2>(net::ppro_fm2_cluster(2));
  std::uint64_t payload = static_cast<std::uint64_t>(kMsgs) * kSize;
  // One gather copy per byte on send, one stream->user copy on receive
  // (+ 24B headers and small slack).
  EXPECT_LT(p.tx.copied_bytes(), payload + kMsgs * 256);
  EXPECT_GE(p.tx.copied_bytes(), payload);
  EXPECT_LT(p.rx.copied_bytes(), payload + kMsgs * 256);
  EXPECT_GE(p.rx.copied_bytes(), payload);
}

TEST(CostStructure, MpiFm2MatchingIsThin) {
  auto p = run_mpi<fm2::Endpoint, mpi::MpiFm2>(net::ppro_fm2_cluster(2));
  // The §4.1 claim: with the right interface, the MPI layer adds thin
  // bookkeeping, not data movement. Matching + request mgmt stay a
  // minority of receiver host time; the copy dominates.
  EXPECT_GT(share(p.rx, Cost::kCopy), 0.5);
  EXPECT_LT(share(p.rx, Cost::kBufferMgmt), 0.1);
}

TEST(CostStructure, Fm1VsFm2SendCopyDiscipline) {
  // FM 2.x sender: exactly one gather copy per byte (plus headers).
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  fm2::Endpoint tx(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint rx(cluster.node(1), cluster.fabric_of(1));
  int got = 0;
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    co_await s.skip(s.remaining());
    ++got;
  });
  eng.spawn([](fm2::Endpoint& ep) -> Task<void> {
    Bytes m(kSize);
    for (int i = 0; i < kMsgs; ++i) co_await ep.send(1, 0, ByteSpan{m});
  }(tx));
  eng.spawn([](fm2::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == kMsgs; });
  }(rx, got));
  cluster.run();
  std::uint64_t payload = static_cast<std::uint64_t>(kMsgs) * kSize;
  EXPECT_GE(tx.host().ledger().copied_bytes(), payload);
  EXPECT_LT(tx.host().ledger().copied_bytes(), payload + kMsgs * 64);
}

}  // namespace
}  // namespace fmx
