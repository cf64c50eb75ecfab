// MPI-FM behaviour tests, run against BOTH generations (FM 1.x and FM 2.x
// backends) through the shared Comm interface.
#include "mpi/mpi.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "mpi/mpi_fm1.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/random.hpp"

namespace fmx::mpi {
namespace {

using sim::Engine;
using sim::Task;

enum class Backend { kFm1, kFm2 };

struct World {
  World(Backend be, int n)
      : cluster(be == Backend::kFm1 ? net::sparc_fm1_cluster(n)
                                    : net::ppro_fm2_cluster(n),
                1) {
    for (int i = 0; i < n; ++i) {
      if (be == Backend::kFm1) {
        fm1_eps.push_back(std::make_unique<fm1::Endpoint>(
            cluster.node(i), cluster.fabric_of(i)));
        comms.push_back(std::make_unique<MpiFm1>(*fm1_eps.back()));
      } else {
        fm2_eps.push_back(std::make_unique<fm2::Endpoint>(
            cluster.node(i), cluster.fabric_of(i)));
        comms.push_back(std::make_unique<MpiFm2>(*fm2_eps.back()));
      }
    }
  }
  Comm& c(int i) { return *comms[i]; }

  net::ParallelCluster cluster;
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<fm1::Endpoint>> fm1_eps;
  std::vector<std::unique_ptr<fm2::Endpoint>> fm2_eps;
  std::vector<std::unique_ptr<Comm>> comms;
};

class MpiBothBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(MpiBothBackends, BasicSendRecv) {
  World w(GetParam(), 2);
  Bytes msg = pattern_bytes(1, 1000);
  Bytes out(1000);
  bool done = false;
  w.eng.spawn([](Comm& c, ByteSpan m) -> Task<void> {
    co_await c.send(m, 1, 42);
  }(w.c(0), ByteSpan{msg}));
  w.eng.spawn([](Comm& c, MutByteSpan o, bool& d) -> Task<void> {
    Status st;
    co_await c.recv(o, 0, 42, &st);
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, 42);
    EXPECT_EQ(st.count, 1000u);
    d = true;
  }(w.c(1), MutByteSpan{out}, done));
  w.cluster.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(out, msg);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST_P(MpiBothBackends, TagSelectsMessage) {
  World w(GetParam(), 2);
  bool done = false;
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes a(8, std::byte{1});
    Bytes b(8, std::byte{2});
    co_await c.send(ByteSpan{a}, 1, 10);
    co_await c.send(ByteSpan{b}, 1, 20);
  }(w.c(0)));
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    Bytes got(8);
    // Receive tag 20 first, then tag 10: matching is by tag, not arrival.
    co_await c.recv(MutByteSpan{got}, 0, 20);
    EXPECT_EQ(got[0], std::byte{2});
    co_await c.recv(MutByteSpan{got}, 0, 10);
    EXPECT_EQ(got[0], std::byte{1});
    d = true;
  }(w.c(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST_P(MpiBothBackends, WildcardsMatchAnything) {
  World w(GetParam(), 3);
  bool done = false;
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes m(16, std::byte{7});
    co_await c.send(ByteSpan{m}, 2, 5);
  }(w.c(0)));
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes m(16, std::byte{9});
    co_await c.send(ByteSpan{m}, 2, 6);
  }(w.c(1)));
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    Bytes got(16);
    Status st1, st2;
    co_await c.recv(MutByteSpan{got}, kAnySource, kAnyTag, &st1);
    co_await c.recv(MutByteSpan{got}, kAnySource, kAnyTag, &st2);
    // Both messages arrived, once each, from distinct sources.
    EXPECT_NE(st1.source, st2.source);
    d = true;
  }(w.c(2), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST_P(MpiBothBackends, FifoOrderSameSourceAndTag) {
  World w(GetParam(), 2);
  constexpr int kN = 20;
  bool done = false;
  w.eng.spawn([](Comm& c) -> Task<void> {
    for (std::uint32_t i = 0; i < kN; ++i) {
      co_await c.send(as_bytes_of(i), 1, 0);
    }
  }(w.c(0)));
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    for (std::uint32_t i = 0; i < kN; ++i) {
      std::uint32_t v;
      co_await c.recv(as_writable_bytes_of(v), 0, 0);
      EXPECT_EQ(v, i);
    }
    d = true;
  }(w.c(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST_P(MpiBothBackends, IrecvWaitAndTest) {
  World w(GetParam(), 2);
  bool done = false;
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    Bytes buf(64);
    Request r = co_await c.irecv(MutByteSpan{buf}, 0, 3);
    EXPECT_FALSE(r.done());
    bool finished = co_await c.test(r);
    (void)finished;  // may or may not have arrived yet
    co_await c.wait(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(pattern_mismatch(4, 0, ByteSpan{buf}), -1);
    d = true;
  }(w.c(1), done));
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes m = pattern_bytes(4, 64);
    co_await c.send(ByteSpan{m}, 1, 3);
  }(w.c(0)));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST_P(MpiBothBackends, SendrecvExchangeNoDeadlock) {
  World w(GetParam(), 2);
  int done = 0;
  for (int me = 0; me < 2; ++me) {
    w.eng.spawn([](Comm& c, int my, int& d) -> Task<void> {
      Bytes mine = pattern_bytes(my, 512);
      Bytes theirs(512);
      co_await c.sendrecv(ByteSpan{mine}, 1 - my, 0, MutByteSpan{theirs},
                          1 - my, 0);
      EXPECT_EQ(pattern_mismatch(1 - my, 0, ByteSpan{theirs}), -1);
      ++d;
    }(w.c(me), me, done));
  }
  w.cluster.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST_P(MpiBothBackends, UnexpectedMessagesBufferedUntilPosted) {
  World w(GetParam(), 2);
  bool done = false;
  w.eng.spawn([](Comm& c) -> Task<void> {
    for (std::uint32_t i = 0; i < 5; ++i) {
      co_await c.send(as_bytes_of(i), 1, 9);
    }
  }(w.c(0)));
  w.eng.spawn([](Engine& e, Comm& c, bool& d) -> Task<void> {
    // Wait long enough that all messages are already on the receiver side.
    co_await e.delay(sim::ms(2));
    for (std::uint32_t i = 0; i < 5; ++i) {
      std::uint32_t v;
      co_await c.recv(as_writable_bytes_of(v), 0, 9);
      EXPECT_EQ(v, i);
    }
    d = true;
  }(w.eng, w.c(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
  EXPECT_GT(w.c(1).stats().unexpected, 0u);
}

TEST_P(MpiBothBackends, TruncationThrows) {
  World w(GetParam(), 2);
  bool threw = false;
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes big(256);
    co_await c.send(ByteSpan{big}, 1, 0);
  }(w.c(0)));
  w.eng.spawn([](Comm& c, bool& t) -> Task<void> {
    Bytes small(16);
    try {
      co_await c.recv(MutByteSpan{small}, 0, 0);
    } catch (const std::runtime_error&) {
      t = true;
    }
  }(w.c(1), threw));
  try {
    w.cluster.run();
  } catch (const std::runtime_error&) {
    threw = true;  // FM2 raises inside the sender-side driver loop
  }
  EXPECT_TRUE(threw);
}

TEST_P(MpiBothBackends, ZeroByteMessage) {
  World w(GetParam(), 2);
  bool done = false;
  w.eng.spawn([](Comm& c) -> Task<void> { co_await c.send({}, 1, 1); }(w.c(0)));
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    Status st;
    co_await c.recv({}, 0, 1, &st);
    EXPECT_EQ(st.count, 0u);
    d = true;
  }(w.c(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST_P(MpiBothBackends, LargeMessageIntegrity) {
  World w(GetParam(), 2);
  constexpr std::size_t kBig = 100'000;
  Bytes out(kBig);
  bool done = false;
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes m = pattern_bytes(11, kBig);
    co_await c.send(ByteSpan{m}, 1, 0);
  }(w.c(0)));
  w.eng.spawn([](Comm& c, MutByteSpan o, bool& d) -> Task<void> {
    co_await c.recv(o, 0, 0);
    d = true;
  }(w.c(1), MutByteSpan{out}, done));
  w.cluster.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(pattern_mismatch(11, 0, ByteSpan{out}), -1);
}

TEST_P(MpiBothBackends, Barrier) {
  const int n = 5;
  World w(GetParam(), n);
  std::vector<int> phase(n, 0);
  for (int me = 0; me < n; ++me) {
    w.eng.spawn([](Engine& e, Comm& c, std::vector<int>& ph, int my,
                   int nn) -> Task<void> {
      // Stagger arrival; after the barrier everyone must see all at 1.
      co_await e.delay(sim::us(10 * (my + 1)));
      ph[my] = 1;
      co_await c.barrier();
      // Everyone must have arrived (phase >= 1); ranks that already left
      // the barrier may legitimately be at phase 2.
      for (int i = 0; i < nn; ++i) EXPECT_GE(ph[i], 1) << "rank " << my;
      ph[my] = 2;
    }(w.eng, w.c(me), phase, me, n));
  }
  w.cluster.run();
  for (int i = 0; i < n; ++i) EXPECT_EQ(phase[i], 2);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST_P(MpiBothBackends, BcastFromEveryRoot) {
  const int n = 4;
  for (int root = 0; root < n; ++root) {
    World w(GetParam(), n);
    int done = 0;
    for (int me = 0; me < n; ++me) {
      w.eng.spawn([](Comm& c, int my, int rt, int& d) -> Task<void> {
        Bytes buf(200);
        if (my == rt) buf = pattern_bytes(rt, 200);
        co_await c.bcast(MutByteSpan{buf}, rt);
        EXPECT_EQ(pattern_mismatch(rt, 0, ByteSpan{buf}), -1)
            << "rank " << my << " root " << rt;
        ++d;
      }(w.c(me), me, root, done));
    }
    w.cluster.run();
    EXPECT_EQ(done, n);
  }
}

TEST_P(MpiBothBackends, ReduceAndAllreduce) {
  const int n = 6;
  World w(GetParam(), n);
  int done = 0;
  for (int me = 0; me < n; ++me) {
    w.eng.spawn([](Comm& c, int my, int nn, int& d) -> Task<void> {
      std::vector<double> v(8);
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = my + static_cast<double>(i);
      }
      co_await c.reduce_sum(std::span<double>{v}, 0);
      if (my == 0) {
        double base = nn * (nn - 1) / 2.0;
        for (std::size_t i = 0; i < v.size(); ++i) {
          EXPECT_DOUBLE_EQ(v[i], base + nn * static_cast<double>(i));
        }
      }
      std::vector<double> a(4, 1.0);
      co_await c.allreduce_sum(std::span<double>{a});
      for (double x : a) EXPECT_DOUBLE_EQ(x, nn);
      ++d;
    }(w.c(me), me, n, done));
  }
  w.cluster.run();
  EXPECT_EQ(done, n);
}

TEST_P(MpiBothBackends, Gather) {
  const int n = 4;
  World w(GetParam(), n);
  Bytes all(n * 32);
  int done = 0;
  for (int me = 0; me < n; ++me) {
    w.eng.spawn([](Comm& c, int my, MutByteSpan out, int& d) -> Task<void> {
      Bytes block = pattern_bytes(my, 32);
      co_await c.gather(ByteSpan{block}, out, 0);
      ++d;
    }(w.c(me), me, MutByteSpan{all}, done));
  }
  w.cluster.run();
  EXPECT_EQ(done, n);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(pattern_mismatch(r, 0, ByteSpan{all}.subspan(r * 32, 32)), -1);
  }
}

TEST_P(MpiBothBackends, Scatter) {
  const int n = 4;
  World w(GetParam(), n);
  Bytes all(n * 16);
  for (int r = 0; r < n; ++r) {
    auto b = pattern_bytes(r, 16);
    std::memcpy(all.data() + r * 16, b.data(), 16);
  }
  int done = 0;
  for (int me = 0; me < n; ++me) {
    w.eng.spawn([](Comm& c, int my, ByteSpan src, int& d) -> Task<void> {
      Bytes block(16);
      co_await c.scatter(src, MutByteSpan{block}, 1);
      EXPECT_EQ(pattern_mismatch(my, 0, ByteSpan{block}), -1);
      ++d;
    }(w.c(me), me, ByteSpan{all}, done));
  }
  w.cluster.run();
  EXPECT_EQ(done, n);
}

TEST_P(MpiBothBackends, Allgather) {
  const int n = 5;  // deliberately not a power of two
  World w(GetParam(), n);
  int done = 0;
  for (int me = 0; me < n; ++me) {
    w.eng.spawn([](Comm& c, int my, int nn, int& d) -> Task<void> {
      Bytes block = pattern_bytes(my, 24);
      Bytes all(nn * 24);
      co_await c.allgather(ByteSpan{block}, MutByteSpan{all});
      for (int r = 0; r < nn; ++r) {
        EXPECT_EQ(pattern_mismatch(r, 0, ByteSpan{all}.subspan(r * 24, 24)),
                  -1)
            << "rank " << my << " block " << r;
      }
      ++d;
    }(w.c(me), me, n, done));
  }
  w.cluster.run();
  EXPECT_EQ(done, n);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST_P(MpiBothBackends, Alltoall) {
  const int n = 4;
  World w(GetParam(), n);
  int done = 0;
  for (int me = 0; me < n; ++me) {
    w.eng.spawn([](Comm& c, int my, int nn, int& d) -> Task<void> {
      // Block for rank r carries pattern seed my*100+r.
      Bytes sendbuf(nn * 32);
      for (int r = 0; r < nn; ++r) {
        auto b = pattern_bytes(my * 100 + r, 32);
        std::memcpy(sendbuf.data() + r * 32, b.data(), 32);
      }
      Bytes recvbuf(nn * 32);
      co_await c.alltoall(ByteSpan{sendbuf}, MutByteSpan{recvbuf});
      for (int r = 0; r < nn; ++r) {
        EXPECT_EQ(pattern_mismatch(r * 100 + my, 0,
                                   ByteSpan{recvbuf}.subspan(r * 32, 32)),
                  -1)
            << "rank " << my << " from " << r;
      }
      ++d;
    }(w.c(me), me, n, done));
  }
  w.cluster.run();
  EXPECT_EQ(done, n);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, MpiBothBackends,
                         ::testing::Values(Backend::kFm1, Backend::kFm2),
                         [](const auto& pinfo) {
                           return pinfo.param == Backend::kFm1 ? "Fm1" : "Fm2";
                         });

TEST_P(MpiBothBackends, WaitallCompletesAWindow) {
  World w(GetParam(), 2);
  constexpr int kN = 8;
  bool done = false;
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    std::vector<Bytes> bufs(kN, Bytes(256));
    std::vector<Request> reqs;
    for (int i = 0; i < kN; ++i) {
      reqs.push_back(co_await c.irecv(MutByteSpan{bufs[i]}, 0, i));
    }
    co_await c.waitall(std::span<Request>{reqs});
    for (int i = 0; i < kN; ++i) {
      EXPECT_TRUE(reqs[i].done());
      EXPECT_EQ(pattern_mismatch(i, 0, ByteSpan{bufs[i]}), -1);
    }
    d = true;
  }(w.c(1), done));
  w.eng.spawn([](Comm& c) -> Task<void> {
    for (int i = kN - 1; i >= 0; --i) {  // reverse tag order
      Bytes m = pattern_bytes(i, 256);
      co_await c.send(ByteSpan{m}, 1, i);
    }
  }(w.c(0)));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST_P(MpiBothBackends, ProbeSeesEnvelopeWithoutConsuming) {
  World w(GetParam(), 2);
  bool done = false;
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes m = pattern_bytes(1, 300);
    co_await c.send(ByteSpan{m}, 1, 8);
  }(w.c(0)));
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    Status st;
    co_await c.probe(0, 8, &st);  // blocks until the envelope is visible
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, 8);
    EXPECT_EQ(st.count, 300u);
    // Probe again: still there (nothing consumed).
    EXPECT_TRUE(co_await c.iprobe(0, 8));
    // Size the buffer from the probed count, the classic probe pattern.
    Bytes buf(st.count);
    co_await c.recv(MutByteSpan{buf}, 0, 8);
    EXPECT_EQ(pattern_mismatch(1, 0, ByteSpan{buf}), -1);
    EXPECT_FALSE(co_await c.iprobe(0, 8));  // consumed now
    d = true;
  }(w.c(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST_P(MpiBothBackends, IprobeFalseWhenNothingMatches) {
  World w(GetParam(), 2);
  bool done = false;
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes m(8);
    co_await c.send(ByteSpan{m}, 1, 5);
  }(w.c(0)));
  w.eng.spawn([](Engine& e, Comm& c, bool& d) -> Task<void> {
    co_await e.delay(sim::ms(1));
    EXPECT_TRUE(co_await c.iprobe(0, 5));
    EXPECT_FALSE(co_await c.iprobe(0, 6));   // wrong tag
    EXPECT_FALSE(co_await c.iprobe(1, 5));   // wrong source
    Bytes buf(8);
    co_await c.recv(MutByteSpan{buf}, 0, 5);
    d = true;
  }(w.eng, w.c(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

// --- Property sweep: random traffic through the full MPI stack -------------

class MpiPropertyTest
    : public ::testing::TestWithParam<std::tuple<Backend, int>> {};

TEST_P(MpiPropertyTest, RandomSizesTagsOrderAndIntegrity) {
  auto [backend, seed] = GetParam();
  World w(backend, 2);
  sim::Rng rng(seed);
  constexpr int kMsgs = 30;
  std::vector<std::size_t> sizes;
  std::vector<int> tags;
  for (int i = 0; i < kMsgs; ++i) {
    sizes.push_back(rng.uniform(0, 6000));
    tags.push_back(static_cast<int>(rng.uniform(0, 2)));
  }
  bool done = false;
  w.eng.spawn([](Comm& c, const std::vector<std::size_t>& sz,
                 const std::vector<int>& tg) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      Bytes m = pattern_bytes(3000 + i, sz[i]);
      co_await c.send(ByteSpan{m}, 1, tg[i]);
    }
  }(w.c(0), sizes, tags));
  w.eng.spawn([](Comm& c, const std::vector<std::size_t>& sz,
                 const std::vector<int>& tg, bool& d) -> Task<void> {
    // Per-tag FIFO: receive tag-by-tag in the per-tag send order.
    for (int tag = 0; tag < 3; ++tag) {
      for (int i = 0; i < kMsgs; ++i) {
        if (tg[i] != tag) continue;
        Bytes buf(sz[i]);
        Status st;
        co_await c.recv(MutByteSpan{buf}, 0, tag, &st);
        EXPECT_EQ(st.count, sz[i]) << "msg " << i;
        EXPECT_EQ(pattern_mismatch(3000 + i, 0, ByteSpan{buf}), -1)
            << "msg " << i << " tag " << tag;
      }
    }
    d = true;
  }(w.c(1), sizes, tags, done));
  w.cluster.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpiPropertyTest,
    ::testing::Combine(::testing::Values(Backend::kFm1, Backend::kFm2),
                       ::testing::Values(11, 12, 13)),
    [](const auto& pinfo) {
      return std::string(std::get<0>(pinfo.param) == Backend::kFm1 ? "Fm1"
                                                                  : "Fm2") +
             "_seed" + std::to_string(std::get<1>(pinfo.param));
    });

// --- Generation-specific structural properties ----------------------------

TEST(MpiFm2Specific, PrePostedWindowIsZeroStaging) {
  // With receives pre-posted, MPI-FM 2.x must take the posted path for every
  // message (layer interleaving) — no unexpected buffering at all.
  World w(Backend::kFm2, 2);
  constexpr int kN = 20;
  constexpr std::size_t kSize = 4096;
  bool done = false;
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    std::vector<Bytes> bufs(kN, Bytes(kSize));
    std::vector<Request> reqs;
    for (int i = 0; i < kN; ++i) {
      reqs.push_back(co_await c.irecv(MutByteSpan{bufs[i]}, 0, 0));
    }
    for (auto& r : reqs) co_await c.wait(r);
    d = true;
  }(w.c(1), done));
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes m(kSize);
    for (int i = 0; i < kN; ++i) co_await c.send(ByteSpan{m}, 1, 0);
  }(w.c(0)));
  w.cluster.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(w.c(1).stats().posted_hits, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(w.c(1).stats().unexpected, 0u);
}

TEST(MpiFm1Specific, EvenPrePostedPathCopiesThroughTemp) {
  // The FM 1.x interface denies the handler the posted buffer: every byte
  // goes user <- temp <- FM buffer. Observable as >= 2 receiver copies per
  // message even with the receive posted in advance.
  World w(Backend::kFm1, 2);
  constexpr std::size_t kSize = 2048;
  auto& mpi1 = static_cast<MpiFm1&>(w.c(1));
  bool done = false;
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    Bytes buf(kSize);
    Request r = co_await c.irecv(MutByteSpan{buf}, 0, 0);
    co_await c.wait(r);
    d = true;
  }(w.c(1), done));
  auto before = mpi1.fm().host().ledger();
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes m(kSize);
    co_await c.send(ByteSpan{m}, 1, 0);
  }(w.c(0)));
  w.cluster.run();
  ASSERT_TRUE(done);
  auto delta = mpi1.fm().host().ledger().diff(before);
  // FM reassembly copies (per packet) + temp copy + temp->user copy.
  EXPECT_GE(delta.copied_bytes(), 3 * kSize);
}

TEST(MpiFm2Specific, RecvPostedDuringInFlightUnexpectedMatchesCorrectly) {
  // Regression: FM 2.x handlers interleave with reception, so a message can
  // be known (header read) but still streaming when the application posts
  // its receive. The posted receive must claim THAT message, not the next
  // one. (Found by the traffic_replay example.)
  World w(Backend::kFm2, 2);
  auto& mpi2 = static_cast<MpiFm2&>(w.c(1));
  constexpr std::size_t kBig = 32 * 1024;
  bool done = false;
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes a = pattern_bytes(100, kBig);
    Bytes b = pattern_bytes(101, 64);
    co_await c.send(ByteSpan{a}, 1, 0);
    co_await c.send(ByteSpan{b}, 1, 0);
  }(w.c(0)));
  w.eng.spawn([](Engine& e, MpiFm2& c, bool& d) -> Task<void> {
    // Let a few packets of the big message arrive, then extract a little:
    // its handler starts, finds no posted recv, and goes "unexpected"
    // while most of its payload is still in flight.
    co_await e.delay(sim::us(200));
    (void)co_await c.fm().extract(4096);
    // Now post the receive mid-arrival.
    Bytes big(kBig);
    Request r1 = co_await c.irecv(MutByteSpan{big}, 0, 0);
    co_await c.wait(r1);
    EXPECT_EQ(pattern_mismatch(100, 0, ByteSpan{big}), -1);
    // The second message must pair with the second receive.
    Bytes small(64);
    co_await c.recv(MutByteSpan{small}, 0, 0);
    EXPECT_EQ(pattern_mismatch(101, 0, ByteSpan{small}), -1);
    d = true;
  }(w.eng, mpi2, done));
  w.cluster.run();
  EXPECT_TRUE(done);
  EXPECT_GE(w.c(1).stats().unexpected, 1u);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(MpiFm2Specific, PostedPayloadBytesCopiedExactlyOnce) {
  World w(Backend::kFm2, 2);
  constexpr std::size_t kSize = 8192;
  auto& mpi2 = static_cast<MpiFm2&>(w.c(1));
  bool done = false;
  w.eng.spawn([](Comm& c, bool& d) -> Task<void> {
    Bytes buf(kSize);
    Request r = co_await c.irecv(MutByteSpan{buf}, 0, 0);
    co_await c.wait(r);
    d = true;
  }(w.c(1), done));
  auto before = mpi2.fm().host().ledger();
  w.eng.spawn([](Comm& c) -> Task<void> {
    Bytes m(kSize);
    co_await c.send(ByteSpan{m}, 1, 0);
  }(w.c(0)));
  w.cluster.run();
  ASSERT_TRUE(done);
  auto delta = mpi2.fm().host().ledger().diff(before);
  // Payload + 24-byte header, each byte moved host-side exactly once.
  EXPECT_LT(delta.copied_bytes(), kSize + 256);
  EXPECT_GE(delta.copied_bytes(), kSize);
}

// --- Rendezvous protocol (MPI-FM 2 extension) -------------------------------

TEST(MpiFm2Rendezvous, LargeMessageRoundTrip) {
  auto params = net::ppro_fm2_cluster(2);
  net::ParallelCluster cluster(params, 1);
  Engine& eng = cluster.shard_engine(0);
  MpiFm2Options opt;
  opt.eager_threshold = 4096;
  fm2::Endpoint ep0(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint ep1(cluster.node(1), cluster.fabric_of(1));
  MpiFm2 tx(ep0, opt), rx(ep1, opt);
  constexpr std::size_t kBig = 64 * 1024;
  bool done = false;
  eng.spawn([](Comm& c, bool& d) -> Task<void> {
    Bytes buf(kBig);
    Request r = co_await c.irecv(MutByteSpan{buf}, 0, 0);
    co_await c.wait(r);
    EXPECT_EQ(pattern_mismatch(42, 0, ByteSpan{buf}), -1);
    d = true;
  }(rx, done));
  eng.spawn([](Comm& c) -> Task<void> {
    Bytes m = pattern_bytes(42, kBig);
    co_await c.send(ByteSpan{m}, 1, 0);
  }(tx));
  cluster.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(MpiFm2Rendezvous, UnexpectedRtsWaitsForPostedBuffer) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  MpiFm2Options opt;
  opt.eager_threshold = 1024;
  fm2::Endpoint ep0(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint ep1(cluster.node(1), cluster.fabric_of(1));
  MpiFm2 tx(ep0, opt), rx(ep1, opt);
  constexpr std::size_t kBig = 32 * 1024;
  bool done = false;
  // Sender goes first: the RTS arrives before any receive is posted.
  eng.spawn([](Comm& c) -> Task<void> {
    Bytes m = pattern_bytes(7, kBig);
    co_await c.send(ByteSpan{m}, 1, 3);
  }(tx));
  eng.spawn([](Engine& e, MpiFm2& c, bool& d) -> Task<void> {
    co_await e.delay(sim::us(300));
    (void)co_await c.fm().extract();  // ingest the RTS -> unexpected queue
    EXPECT_GE(c.stats().unexpected, 1u);
    Bytes buf(kBig);
    co_await c.recv(MutByteSpan{buf}, 0, 3);
    EXPECT_EQ(pattern_mismatch(7, 0, ByteSpan{buf}), -1);
    d = true;
  }(eng, rx, done));
  cluster.run();
  EXPECT_TRUE(done);
  // The payload was never staged: each byte was copied host-side exactly
  // once (stream -> user buffer) despite being "unexpected".
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(MpiFm2Rendezvous, UnexpectedLargeMessageIsNotStaged) {
  // Eager: a 32 KB unexpected message costs a 32 KB staging copy.
  // Rendezvous: only the 24 B envelope queues; zero payload staging.
  auto staged_bytes = [](std::size_t threshold) {
    net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
    Engine& eng = cluster.shard_engine(0);
    MpiFm2Options opt;
    opt.eager_threshold = threshold;
    fm2::Endpoint ep0(cluster.node(0), cluster.fabric_of(0));
    fm2::Endpoint ep1(cluster.node(1), cluster.fabric_of(1));
    MpiFm2 tx(ep0, opt), rx(ep1, opt);
    constexpr std::size_t kBig = 32 * 1024;
    bool done = false;
    eng.spawn([](Comm& c) -> Task<void> {
      Bytes m = pattern_bytes(1, kBig);
      co_await c.send(ByteSpan{m}, 1, 0);
    }(tx));
    eng.spawn([](Engine& e, MpiFm2& c, bool& d) -> Task<void> {
      co_await e.delay(sim::ms(3));     // message fully arrives first
      (void)co_await c.fm().extract();  // unexpected path taken
      Bytes buf(kBig);
      co_await c.recv(MutByteSpan{buf}, 0, 0);
      EXPECT_EQ(pattern_mismatch(1, 0, ByteSpan{buf}), -1);
      d = true;
    }(eng, rx, done));
    auto before = rx.fm().host().ledger();
    cluster.run();
    EXPECT_TRUE(done);
    return rx.fm().host().ledger().diff(before).copied_bytes();
  };
  auto eager_copied = staged_bytes(~std::size_t{0});
  auto rdzv_copied = staged_bytes(1024);
  // Eager: stream->staging + staging->user = 2x payload. Rendezvous: 1x.
  EXPECT_GT(eager_copied, 60'000u);
  EXPECT_LT(rdzv_copied, 36'000u);
}

TEST(MpiFm2Rendezvous, MixedEagerAndRendezvousStayOrdered) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  MpiFm2Options opt;
  opt.eager_threshold = 1000;
  fm2::Endpoint ep0(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint ep1(cluster.node(1), cluster.fabric_of(1));
  MpiFm2 tx(ep0, opt), rx(ep1, opt);
  const std::vector<std::size_t> sizes = {64, 8000, 128, 12000, 16};
  bool done = false;
  eng.spawn([](Comm& c, const std::vector<std::size_t>& sz) -> Task<void> {
    for (std::size_t i = 0; i < sz.size(); ++i) {
      Bytes m = pattern_bytes(i, sz[i]);
      co_await c.send(ByteSpan{m}, 1, 0);
    }
  }(tx, sizes));
  eng.spawn([](Comm& c, const std::vector<std::size_t>& sz,
               bool& d) -> Task<void> {
    for (std::size_t i = 0; i < sz.size(); ++i) {
      Bytes buf(sz[i]);
      Status st;
      co_await c.recv(MutByteSpan{buf}, 0, 0, &st);
      EXPECT_EQ(st.count, sz[i]) << "message " << i;
      EXPECT_EQ(pattern_mismatch(i, 0, ByteSpan{buf}), -1) << "msg " << i;
    }
    d = true;
  }(rx, sizes, done));
  cluster.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(MpiFm2Rendezvous, SendrecvExchangeOfLargeMessages) {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cluster.shard_engine(0);
  MpiFm2Options opt;
  opt.eager_threshold = 2048;
  fm2::Endpoint ep0(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint ep1(cluster.node(1), cluster.fabric_of(1));
  MpiFm2 a(ep0, opt), b(ep1, opt);
  constexpr std::size_t kBig = 20'000;
  int done = 0;
  Comm* comms[2] = {&a, &b};
  for (int me = 0; me < 2; ++me) {
    eng.spawn([](Comm& c, int my, int& d) -> Task<void> {
      Bytes mine = pattern_bytes(my, kBig);
      Bytes theirs(kBig);
      co_await c.sendrecv(ByteSpan{mine}, 1 - my, 0, MutByteSpan{theirs},
                          1 - my, 0);
      EXPECT_EQ(pattern_mismatch(1 - my, 0, ByteSpan{theirs}), -1);
      ++d;
    }(*comms[me], me, done));
  }
  cluster.run();
  EXPECT_EQ(done, 2);  // both rendezvous complete, no deadlock
  EXPECT_EQ(eng.pending_roots(), 0);
}

}  // namespace
}  // namespace fmx::mpi
