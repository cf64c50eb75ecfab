// Pins the exact per-message copy counts each layer charges to the cost
// ledger — the numbers behind the paper's "one copy on the receive path"
// claim and the headline table's copies/msg columns. The counts are
// derived from the segment size, so the test fails loudly if a layer ever
// double-counts a copy (e.g. charging both the FM staging copy and a NIC
// copy for the same bytes) or silently adds a staging hop.
//
// Expected model, P = ceil(msg_size / max_payload_per_packet):
//   FM 1.x tx: P copies (host assembles + PIOs/pins each packet once)
//   FM 1.x rx: P copies for multi-packet messages (packet -> staging
//              buffer; the handler then reads the staging span in place),
//              0 copies for single-packet messages (handler reads the
//              ring slot in place).
//   FM 2.x tx: P copies (the gather copy, user piece -> packet under
//              assembly; DMA fetches it without another host copy)
//   FM 2.x rx: P copies (the single stream -> user copy, charged once
//              per packet as the receive request drains the ring)
//
// The zero-copy data plane adds a second dimension: the *physical* copies
// the simulator process performs (CopyStats). Every modeled copy above
// moves bytes exactly once, and nothing else does — per-hop real copies
// (NIC retention, wire transit, fault duplication) must be zero in a
// 1-shard run. A 2-shard parallel run keeps the modeled and endpoint
// counts bit-identical and adds only the explicit one-copy-per-side
// cross-shard boundary, counted as per-hop copies.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/copy_stats.hpp"
#include "fm1/fm1.hpp"
#include "fm2/fm2.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/node.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

constexpr int kMsgs = 10;

struct Copies {
  std::uint64_t tx = 0, rx = 0;
  std::size_t packets_per_msg = 0;
  CopyStats::Snapshot real;
};

Copies fm1_copies(std::size_t msg_size) {
  net::ParallelCluster cluster(net::sparc_fm1_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  fm1::Endpoint tx(cluster.node(0), cluster.fabric_of(0));
  fm1::Endpoint rx(cluster.node(1), cluster.fabric_of(1));
  int got = 0;
  rx.register_handler(0, [&](int, ByteSpan) { ++got; });
  eng.spawn([](fm1::Endpoint& ep, std::size_t sz) -> Task<void> {
    Bytes m(sz);
    for (int i = 0; i < kMsgs; ++i) co_await ep.send(1, 0, ByteSpan{m});
  }(tx, msg_size));
  eng.spawn([](fm1::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == kMsgs; });
  }(rx, got));
  CopyStats::instance().reset();
  EXPECT_TRUE(test::run_to_exhaustion(cluster));
  EXPECT_EQ(got, kMsgs);
  const std::size_t seg = tx.max_payload_per_packet();
  return Copies{tx.host().ledger().copies(), rx.host().ledger().copies(),
                (msg_size + seg - 1) / seg, CopyStats::instance().snapshot()};
}

// FM 2.x stream node 0 -> node 1. At 2 shards the nodes live on different
// shards, so every wire packet crosses the SPSC boundary.
Copies fm2_copies(std::size_t msg_size, bool reliable_link = false,
                  int shards = 1, int threads = 1) {
  auto params = net::ppro_fm2_cluster(2);
  params.nic.reliable_link = reliable_link;
  net::ParallelCluster cl(params, shards);
  fm2::Endpoint tx(cl.node(0), cl.fabric_of(0));
  fm2::Endpoint rx(cl.node(1), cl.fabric_of(1));
  int got = 0;
  Bytes sink(msg_size);
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    co_await s.receive(sink.data(), s.msg_bytes());
    ++got;
  });
  cl.spawn_on(0, [](fm2::Endpoint& ep, std::size_t sz) -> Task<void> {
    Bytes m(sz);
    for (int i = 0; i < kMsgs; ++i) co_await ep.send(1, 0, ByteSpan{m});
  }(tx, msg_size));
  cl.spawn_on(1, [](fm2::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == kMsgs; });
  }(rx, got));
  CopyStats::instance().reset();
  auto r = cl.run(threads);
  EXPECT_EQ(r.pending_roots, 0);
  EXPECT_EQ(got, kMsgs);
  const std::size_t seg = tx.max_payload_per_packet();
  return Copies{tx.host().ledger().copies(), rx.host().ledger().copies(),
                (msg_size + seg - 1) / seg, CopyStats::instance().snapshot()};
}

// Every physical copy the serial data plane still makes is a modeled
// endpoint copy — and per-hop copies are gone entirely.
void expect_zero_copy_hops(const Copies& c) {
  EXPECT_EQ(c.real.hop_copies, 0u) << "per-hop physical copy on the serial "
                                      "wire path (retention/COW/staging)";
  EXPECT_EQ(c.real.endpoint_copies, c.tx + c.rx)
      << "physical endpoint copies diverged from the modeled count";
}

// MPI-FM2 rendezvous stream: every message is above the eager threshold,
// so with rdma on each payload moves as remote-memory writes and the only
// host-side byte movement is the 24-byte control envelopes.
Copies rdzv_copies(std::size_t msg_size, bool rdma, int shards = 1,
                   int threads = 1) {
  mpi::MpiFm2Options opt;
  opt.eager_threshold = 1024;
  opt.rdma = rdma;
  int got = 0;
  auto receiver = [](mpi::MpiFm2& c, std::size_t sz, int& g) -> Task<void> {
    Bytes buf(sz);
    for (int i = 0; i < kMsgs; ++i) {
      co_await c.recv(MutByteSpan{buf}, 0, i);
      ++g;
    }
  };
  auto sender = [](mpi::MpiFm2& c, std::size_t sz) -> Task<void> {
    Bytes m(sz);
    for (int i = 0; i < kMsgs; ++i) co_await c.send(ByteSpan{m}, 1, i);
  };
  net::ParallelCluster cl(net::ppro_fm2_cluster(2), shards);
  fm2::Endpoint ep0(cl.node(0), cl.fabric_of(0));
  fm2::Endpoint ep1(cl.node(1), cl.fabric_of(1));
  mpi::MpiFm2 tx(ep0, opt), rx(ep1, opt);
  cl.spawn_on(0, sender(tx, msg_size));
  cl.spawn_on(1, receiver(rx, msg_size, got));
  CopyStats::instance().reset();
  auto r = cl.run(threads);
  EXPECT_EQ(r.pending_roots, 0);
  EXPECT_EQ(got, kMsgs);
  const std::size_t seg = ep0.max_payload_per_packet();
  return Copies{ep0.host().ledger().copies(), ep1.host().ledger().copies(),
                (msg_size + seg - 1) / seg, CopyStats::instance().snapshot()};
}

TEST(CopyCounts, Fm1MultiPacket) {
  Copies c = fm1_copies(2048);
  ASSERT_GT(c.packets_per_msg, 1u);
  EXPECT_EQ(c.tx, kMsgs * c.packets_per_msg);
  EXPECT_EQ(c.rx, kMsgs * c.packets_per_msg);
  expect_zero_copy_hops(c);
}

TEST(CopyCounts, Fm1SinglePacketHasNoReceiveCopy) {
  Copies c = fm1_copies(64);
  ASSERT_EQ(c.packets_per_msg, 1u);
  EXPECT_EQ(c.tx, static_cast<std::uint64_t>(kMsgs));
  // Single-packet FM 1.x messages skip staging: the handler reads the
  // packet in place, so the receive path charges zero copies.
  EXPECT_EQ(c.rx, 0u);
  expect_zero_copy_hops(c);
}

TEST(CopyCounts, Fm2OneCopyPerPacketEachSide) {
  Copies c = fm2_copies(8192);
  ASSERT_GT(c.packets_per_msg, 1u);
  EXPECT_EQ(c.tx, kMsgs * c.packets_per_msg);
  EXPECT_EQ(c.rx, kMsgs * c.packets_per_msg);
  expect_zero_copy_hops(c);
}

TEST(CopyCounts, Fm2ReliableLinkRetentionSharesNotCopies) {
  // Go-back-N retention keeps a reference to every in-flight packet; on a
  // clean fabric that sharing must never turn into a physical copy, and
  // the modeled counts are identical to the unreliable run.
  Copies plain = fm2_copies(8192);
  Copies rel = fm2_copies(8192, /*reliable_link=*/true);
  EXPECT_EQ(rel.tx, plain.tx);
  EXPECT_EQ(rel.rx, plain.rx);
  expect_zero_copy_hops(rel);
}

TEST(CopyCounts, Fm2ParallelShardsAddOnlyTheCrossShardCopies) {
  Copies serial = fm2_copies(8192);
  for (int threads : {1, 2}) {
    Copies par = fm2_copies(8192, /*reliable_link=*/false, 2, threads);
    // Modeled charges are thread-count- and sharding-invariant.
    EXPECT_EQ(par.tx, serial.tx) << threads << " threads";
    EXPECT_EQ(par.rx, serial.rx) << threads << " threads";
    // The simulated API still moves bytes exactly where the model says.
    EXPECT_EQ(par.real.endpoint_copies, serial.real.endpoint_copies)
        << threads << " threads";
    // The SPSC boundary is the one real copy pair per crossing packet —
    // present, counted, and the only per-hop copies in the run.
    EXPECT_GT(par.real.hop_copies, 0u) << threads << " threads";
    EXPECT_EQ(par.real.hop_copies % 2, 0u)
        << threads << " threads: encode and decode must pair up";
  }
}

TEST(CopyCounts, RendezvousRdmaMovesPayloadWithZeroHostCopies) {
  constexpr std::size_t kSize = 32 * 1024;
  Copies c = rdzv_copies(kSize, /*rdma=*/true);
  // Every payload byte is placed by the NIC DMA engine exactly once ...
  EXPECT_EQ(c.real.rdma_bytes, static_cast<std::uint64_t>(kMsgs) * kSize);
  EXPECT_GT(c.real.rdma_writes, 0u);
  // ... no packet is staged or duplicated anywhere on the wire path ...
  EXPECT_EQ(c.real.hop_copies, 0u);
  // ... and host-side byte movement is the control envelopes alone
  // (RTS/CTS/DONE, 24-byte headers), never the payload.
  EXPECT_LT(c.real.endpoint_bytes, static_cast<std::uint64_t>(kMsgs) * 1024);
}

TEST(CopyCounts, RendezvousStagedAblationPaysTheCopiesRdmaRemoves) {
  // rdma=false keeps the negotiation but streams the payload through the
  // normal host-staged path: the copies come back, proving the zero-copy
  // claim above is the RDMA plane's doing and not an accounting artifact.
  constexpr std::size_t kSize = 32 * 1024;
  Copies staged = rdzv_copies(kSize, /*rdma=*/false);
  EXPECT_EQ(staged.real.rdma_bytes, 0u);
  EXPECT_GE(staged.real.endpoint_bytes,
            static_cast<std::uint64_t>(kMsgs) * kSize);
  EXPECT_EQ(staged.real.hop_copies, 0u);
}

TEST(CopyCounts, RendezvousRdmaParallelAddsOnlyCrossShardCopies) {
  constexpr std::size_t kSize = 32 * 1024;
  Copies serial = rdzv_copies(kSize, /*rdma=*/true);
  for (int threads : {1, 2}) {
    Copies par = rdzv_copies(kSize, /*rdma=*/true, 2, threads);
    EXPECT_EQ(par.real.rdma_bytes, static_cast<std::uint64_t>(kMsgs) * kSize)
        << threads << " threads";
    EXPECT_EQ(par.real.endpoint_bytes, serial.real.endpoint_bytes)
        << threads << " threads";
    // RDMA chunks crossing the shard boundary ride the SPSC ring like any
    // other packet: one encode+decode copy pair each, and nothing else.
    EXPECT_GT(par.real.hop_copies, 0u) << threads << " threads";
    EXPECT_EQ(par.real.hop_copies % 2, 0u)
        << threads << " threads: encode and decode must pair up";
  }
}

}  // namespace
}  // namespace fmx
