#include "shmem/shmem.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ga/global_array.hpp"
#include "myrinet/parallel_cluster.hpp"

namespace fmx::shmem {
namespace {

using sim::Engine;
using sim::Task;

struct World {
  explicit World(int n)
      : cluster(net::ppro_fm2_cluster(n), 1) {
    for (int i = 0; i < n; ++i) {
      eps.push_back(std::make_unique<fm2::Endpoint>(cluster.node(i),
                                                    cluster.fabric_of(i)));
      pes.push_back(std::make_unique<ShmemCtx>(*eps.back()));
    }
  }
  ShmemCtx& pe(int i) { return *pes[i]; }

  net::ParallelCluster cluster;
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  std::vector<std::unique_ptr<ShmemCtx>> pes;
};

TEST(Shmem, PutLandsInRemoteHeap) {
  World w(2);
  bool done = false;
  w.eng.spawn([](ShmemCtx& me, ShmemCtx& peer, bool& d) -> Task<void> {
    Bytes data = pattern_bytes(1, 500);
    co_await me.put(1, 100, ByteSpan{data});
    co_await me.quiet();
    d = true;
    peer.kick();  // termination nudge for the polling server
  }(w.pe(0), w.pe(1), done));
  w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
    co_await me.poll_until([&] { return d; });
  }(w.pe(1), done));
  w.cluster.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(pattern_mismatch(1, 0, ByteSpan{w.pe(1).heap()}.subspan(100, 500)),
            -1);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(Shmem, GetReadsRemoteHeap) {
  World w(2);
  // Pre-fill PE 1's heap locally.
  Bytes data = pattern_bytes(2, 800);
  std::memcpy(w.pe(1).heap().data() + 64, data.data(), data.size());
  bool done = false;
  w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
    Bytes out(800);
    co_await me.get(1, 64, MutByteSpan{out});
    EXPECT_EQ(pattern_mismatch(2, 0, ByteSpan{out}), -1);
    d = true;
  }(w.pe(0), done));
  w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
    co_await me.poll_until([&] { return d; });
  }(w.pe(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST(Shmem, QuietWaitsForAllPuts) {
  World w(2);
  bool done = false;
  w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
    Bytes chunk(256);
    for (int i = 0; i < 10; ++i) {
      co_await me.put(1, i * 256, ByteSpan{chunk});
    }
    co_await me.quiet();  // all 10 acks must be in
    d = true;
  }(w.pe(0), done));
  w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
    co_await me.poll_until([&] { return d; });
  }(w.pe(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(w.pe(0).stats().puts, 10u);
}

TEST(Shmem, FetchAddIsAtomicAcrossPes) {
  World w(3);
  // PEs 0 and 1 both increment a counter on PE 2.
  std::int64_t zero = 0;
  std::memcpy(w.pe(2).heap().data(), &zero, sizeof(zero));
  int done = 0;
  std::vector<std::int64_t> observed;
  for (int p = 0; p < 2; ++p) {
    w.eng.spawn([](ShmemCtx& me, int& d, std::vector<std::int64_t>& obs)
                    -> Task<void> {
      for (int i = 0; i < 10; ++i) {
        std::int64_t old = co_await me.fetch_add(2, 0, 1);
        obs.push_back(old);
      }
      ++d;
    }(w.pe(p), done, observed));
  }
  w.eng.spawn([](ShmemCtx& me, int& d) -> Task<void> {
    co_await me.poll_until([&] { return d == 2; });
  }(w.pe(2), done));
  w.cluster.run();
  ASSERT_EQ(done, 2);
  std::int64_t final_v;
  std::memcpy(&final_v, w.pe(2).heap().data(), sizeof(final_v));
  EXPECT_EQ(final_v, 20);
  // Every old value seen exactly once: atomicity.
  std::sort(observed.begin(), observed.end());
  for (std::int64_t i = 0; i < 20; ++i) EXPECT_EQ(observed[i], i);
}

TEST(Shmem, AccumulateSumsElementwise) {
  World w(2);
  std::vector<double> init(16, 1.5);
  std::memcpy(w.pe(1).heap().data(), init.data(), sizeof(double) * 16);
  bool done = false;
  w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
    std::vector<double> add(16, 2.0);
    co_await me.accumulate(1, 0, std::span<const double>{add});
    co_await me.quiet();
    d = true;
  }(w.pe(0), done));
  w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
    co_await me.poll_until([&] { return d; });
  }(w.pe(1), done));
  w.cluster.run();
  ASSERT_TRUE(done);
  const double* out = reinterpret_cast<const double*>(w.pe(1).heap().data());
  for (int i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(out[i], 3.5);
}

TEST(Shmem, PutBeyondHeapThrows) {
  World w(2);
  w.eng.spawn([](ShmemCtx& me) -> Task<void> {
    Bytes b(64);
    EXPECT_THROW(
        co_await me.put(1, me.heap().size() - 10, ByteSpan{b}),
        std::out_of_range);
  }(w.pe(0)));
  w.cluster.run();
}

TEST(Shmem, GetBeyondHeapThrows) {
  World w(2);
  w.eng.spawn([](ShmemCtx& me) -> Task<void> {
    Bytes b(64);
    EXPECT_THROW(
        co_await me.get(1, me.heap().size() - 10, MutByteSpan{b}),
        std::out_of_range);
  }(w.pe(0)));
  w.cluster.run();
}

TEST(Shmem, LocalLoopbackPutGet) {
  World w(2);
  bool done = false;
  w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
    Bytes data = pattern_bytes(3, 128);
    co_await me.put(0, 0, ByteSpan{data});  // to self
    co_await me.quiet();
    Bytes out(128);
    co_await me.get(0, 0, MutByteSpan{out});
    EXPECT_EQ(pattern_mismatch(3, 0, ByteSpan{out}), -1);
    d = true;
  }(w.pe(0), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

// --- Global Arrays over shmem ----------------------------------------------

TEST(GlobalArrays, PutGetRoundTripAcrossOwners) {
  World w(4);
  constexpr std::size_t R = 40, C = 8;
  std::vector<std::unique_ptr<ga::GlobalArray>> gas;
  for (int p = 0; p < 4; ++p) {
    gas.push_back(std::make_unique<ga::GlobalArray>(w.pe(p), R, C));
  }
  EXPECT_EQ(gas[0]->owner_of(0), 0);
  EXPECT_EQ(gas[0]->owner_of(39), 3);
  bool done = false;
  w.eng.spawn([](ga::GlobalArray& g, bool& d) -> Task<void> {
    // Write a patch spanning three owners (rows 5..34).
    std::vector<double> patch(30 * 8);
    for (std::size_t i = 0; i < patch.size(); ++i) {
      patch[i] = static_cast<double>(i);
    }
    co_await g.put_rows(5, 30, patch);
    co_await g.flush();
    std::vector<double> back(30 * 8, -1.0);
    co_await g.get_rows(5, 30, back);
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_DOUBLE_EQ(back[i], static_cast<double>(i));
    }
    d = true;
  }(*gas[0], done));
  // Completion runs on PE 0; nudge the serving PEs so their poll loops
  // re-check `done` once traffic stops.
  w.eng.spawn([](Engine& e, World& ww, bool& d) -> Task<void> {
    while (!d) {
      co_await e.delay(sim::ms(1));
      for (int p = 1; p < 4; ++p) ww.pe(p).kick();
    }
    for (int p = 1; p < 4; ++p) ww.pe(p).kick();
  }(w.eng, w, done));
  for (int p = 1; p < 4; ++p) {
    w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
      co_await me.poll_until([&] { return d; });
    }(w.pe(p), done));
  }
  w.cluster.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(GlobalArrays, AccumulateAddsIntoRemoteRows) {
  World w(2);
  constexpr std::size_t R = 8, C = 4;
  ga::GlobalArray g0(w.pe(0), R, C);
  ga::GlobalArray g1(w.pe(1), R, C);
  // PE 1 owns rows 4..7; zero them via its local view.
  auto local = g1.local_rows();
  std::fill(local.begin(), local.end(), 0.0);
  bool done = false;
  w.eng.spawn([](ga::GlobalArray& g, bool& d) -> Task<void> {
    std::vector<double> ones(2 * 4, 1.0);
    co_await g.acc_rows(4, 2, ones);
    co_await g.acc_rows(4, 2, ones);
    co_await g.flush();
    d = true;
  }(g0, done));
  w.eng.spawn([](ShmemCtx& me, bool& d) -> Task<void> {
    co_await me.poll_until([&] { return d; });
  }(w.pe(1), done));
  w.cluster.run();
  ASSERT_TRUE(done);
  for (std::size_t i = 0; i < 2 * C; ++i) {
    EXPECT_DOUBLE_EQ(g1.local_rows()[i], 2.0);
  }
}

TEST(GlobalArrays, ConcurrentAccumulatesFromAllPes) {
  World w(4);
  constexpr std::size_t R = 16, C = 4;
  std::vector<std::unique_ptr<ga::GlobalArray>> gas;
  for (int p = 0; p < 4; ++p) {
    gas.push_back(std::make_unique<ga::GlobalArray>(w.pe(p), R, C));
    auto local = gas.back()->local_rows();
    std::fill(local.begin(), local.end(), 0.0);
  }
  int done = 0;
  for (int p = 0; p < 4; ++p) {
    w.eng.spawn([](ga::GlobalArray& g, ShmemCtx& me, int& d) -> Task<void> {
      std::vector<double> ones(R * C, 1.0);
      co_await g.acc_rows(0, R, ones);  // touches every owner
      co_await g.flush();
      ++d;
      co_await me.poll_until([&] { return d == 4; });
    }(*gas[p], w.pe(p), done));
  }
  w.eng.spawn([](Engine& e, World& ww, int& d) -> Task<void> {
    while (d < 4) co_await e.delay(sim::ms(1));
    for (int p = 0; p < 4; ++p) ww.pe(p).kick();
  }(w.eng, w, done));
  w.cluster.run();
  EXPECT_EQ(done, 4);
  // All 4 PEs accumulated 1.0 into every cell: each local block reads 4.0.
  for (int p = 0; p < 4; ++p) {
    for (double v : gas[p]->local_rows()) EXPECT_DOUBLE_EQ(v, 4.0);
  }
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(GlobalArrays, PatchSizeMismatchThrows) {
  World w(2);
  ga::GlobalArray g(w.pe(0), 10, 4);
  w.eng.spawn([](ga::GlobalArray& ga_, ShmemCtx&) -> Task<void> {
    std::vector<double> wrong(7);
    EXPECT_THROW(co_await ga_.put_rows(0, 2, wrong), std::invalid_argument);
  }(g, w.pe(0)));
  w.cluster.run();
}

}  // namespace
}  // namespace fmx::shmem
