// Copy-on-write isolation property sweep. The zero-copy data plane shares
// one payload block between the NIC's go-back-N retention queue, in-flight
// wire packets, and fault-injected duplicates; a corrupted bit on one hop
// must flip exactly one reference's view and never bleed into a sibling.
// Two angles:
//  - a randomized slice/mutate torture on BufferRef itself, checked
//    against shadow copies (pure unit property, no simulator), and
//  - end-to-end: a duplicating + corrupting lossy fabric under go-back-N,
//    where a poisoned retention copy would retransmit garbage — so
//    exactly-once, byte-exact delivery across 20 seeds IS the isolation
//    proof.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/buffer_ref.hpp"
#include "common/crc32.hpp"
#include "fault/injector.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

class CowSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CowSeeds, RandomSliceMutationsNeverLeakIntoSiblings) {
  std::mt19937_64 rng(GetParam());
  BufferPool pool;

  // Live references plus a byte-for-byte shadow of what each must read.
  struct Tracked {
    BufferRef ref;
    Bytes shadow;
  };
  std::vector<Tracked> live;

  auto fill = [&rng](MutByteSpan out) {
    for (std::byte& b : out) b = static_cast<std::byte>(rng() & 0xff);
  };
  auto check_all = [&live] {
    for (std::size_t i = 0; i < live.size(); ++i) {
      const Tracked& t = live[i];
      ASSERT_EQ(t.ref.size(), t.shadow.size()) << "ref " << i;
      ASSERT_EQ(std::memcmp(t.ref.data(), t.shadow.data(), t.shadow.size()),
                0)
          << "ref " << i << " diverged from its shadow";
      ASSERT_EQ(t.ref.crc(), crc32(ByteSpan{t.shadow})) << "ref " << i;
    }
  };

  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng() % 5);
    if (live.empty() || op == 0) {
      // Fresh pooled block with random content.
      const std::size_t n = 1 + rng() % 300;
      Tracked t;
      t.ref = pool.acquire_ref(n);
      fill(t.ref.mutable_bytes());
      t.shadow.assign(t.ref.span().begin(), t.ref.span().end());
      live.push_back(std::move(t));
    } else if (op == 1) {
      // Alias: share a whole view.
      const Tracked& src = live[rng() % live.size()];
      live.push_back({src.ref, src.shadow});
    } else if (op == 2) {
      // Sub-slice an existing view.
      const Tracked& src = live[rng() % live.size()];
      const std::size_t off = rng() % src.ref.size();
      const std::size_t n = 1 + rng() % (src.ref.size() - off);
      Tracked t;
      t.ref = src.ref.subslice(off, n);
      t.shadow.assign(src.shadow.begin() + static_cast<std::ptrdiff_t>(off),
                      src.shadow.begin() + static_cast<std::ptrdiff_t>(off + n));
      live.push_back(std::move(t));
    } else if (op == 3) {
      // Corrupt one byte through the COW seam — only this ref's shadow
      // changes; every sibling must keep reading its own bytes.
      Tracked& t = live[rng() % live.size()];
      const std::size_t pos = rng() % t.ref.size();
      const std::byte v = static_cast<std::byte>(rng() & 0xff);
      t.ref.mutable_bytes()[pos] = v;
      t.shadow[pos] = v;
    } else {
      // Drop a reference (last one out returns the block to the pool).
      const std::size_t victim = rng() % live.size();
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    check_all();
  }
  live.clear();
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

// End-to-end: duplicates + corruption + drops over go-back-N. Every
// duplicated WirePacket shares its payload block with the original and the
// sender's retention queue; corruption COWs the damaged copy off. If
// isolation ever broke, either the receiver would accept a corrupted
// payload (pattern mismatch) or a poisoned retention copy would
// retransmit garbage forever (the run would not deliver exactly kMsgs).
TEST_P(CowSeeds, CorruptedDuplicatesNeverPoisonRetransmission) {
  const std::uint64_t seed = GetParam();
  auto params = net::ppro_fm2_cluster(2);
  params.nic.reliable_link = true;
  net::ParallelCluster cl(params, 1);
  Engine& eng = cl.shard_engine(0);
  fault::FaultPlan plan = fault::FaultPlan::lossy(0.05, seed);
  plan.wire.duplicate = 0.10;  // lots of shared-block siblings in flight
  auto injectors = fault::arm(cl, plan);

  fm2::Endpoint tx(cl.node(0), cl.fabric_of(0));
  fm2::Endpoint rx(cl.node(1), cl.fabric_of(1));
  constexpr int kMsgs = 60;
  const std::size_t seg = tx.max_payload_per_packet();
  int got = 0;
  int mismatches = 0;
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    Bytes buf(s.msg_bytes());
    co_await s.receive(MutByteSpan{buf});
    if (pattern_mismatch(seed + static_cast<std::uint64_t>(got), 0,
                         ByteSpan{buf}) != -1) {
      ++mismatches;
    }
    ++got;
  });
  eng.spawn([](fm2::Endpoint& ep, std::uint64_t sd,
               std::size_t sg) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      // Straddle the segment boundary so single- and multi-packet messages
      // both ride the lossy fabric.
      const std::size_t n = 1 + (i % (2 * sg + 2));
      Bytes m = pattern_bytes(sd + static_cast<std::uint64_t>(i), n);
      co_await ep.send(1, 0, ByteSpan{m});
    }
  }(tx, seed, seg));
  eng.spawn([](fm2::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == kMsgs; });
  }(rx, got));
  cl.run();

  EXPECT_EQ(got, kMsgs) << "seed " << seed;
  EXPECT_EQ(mismatches, 0) << "seed " << seed
                           << ": corrupted payload reached a handler";
  const fault::PlanInjector::Stats& inj = injectors[0]->stats();
  EXPECT_GT(inj.corruptions + inj.duplicates, 0u)
      << "seed " << seed << ": sweep did not exercise the COW seam";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CowSeeds,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace fmx
