// Socket-FM edge cases: bidirectional streams, interleaved tiny writes,
// EOF orderings, zero-size operations.
#include <gtest/gtest.h>

#include <memory>

#include "myrinet/parallel_cluster.hpp"
#include "sockets/socket_fm.hpp"

namespace fmx::sock {
namespace {

using sim::Engine;
using sim::Task;

struct World {
  explicit World(int n)
      : cluster(net::ppro_fm2_cluster(n), 1) {
    for (int i = 0; i < n; ++i) {
      eps.push_back(std::make_unique<fm2::Endpoint>(cluster.node(i),
                                                    cluster.fabric_of(i)));
      stacks.push_back(std::make_unique<SocketFm>(*eps.back()));
    }
  }
  SocketFm& at(int i) { return *stacks[i]; }
  net::ParallelCluster cluster;
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  std::vector<std::unique_ptr<SocketFm>> stacks;
};

TEST(SocketEdge, FullDuplexSimultaneousTransfer) {
  World w(2);
  w.at(1).listen(1);
  constexpr std::size_t kBytes = 100'000;
  int done = 0;
  w.eng.spawn([](SocketFm& s, int& d) -> Task<void> {
    Socket* c = co_await s.connect(1, 1);
    Bytes mine = pattern_bytes(10, kBytes);
    Bytes theirs(kBytes);
    // Interleave send and recv chunks to force true duplex operation.
    for (std::size_t off = 0; off < kBytes; off += 10'000) {
      co_await c->send(ByteSpan{mine}.subspan(off, 10'000));
      co_await c->recv_exact(MutByteSpan{theirs}.subspan(off, 10'000));
    }
    EXPECT_EQ(pattern_mismatch(11, 0, ByteSpan{theirs}), -1);
    ++d;
  }(w.at(0), done));
  w.eng.spawn([](SocketFm& s, int& d) -> Task<void> {
    Socket* c = co_await s.accept(1);
    Bytes mine = pattern_bytes(11, kBytes);
    Bytes theirs(kBytes);
    for (std::size_t off = 0; off < kBytes; off += 10'000) {
      co_await c->recv_exact(MutByteSpan{theirs}.subspan(off, 10'000));
      co_await c->send(ByteSpan{mine}.subspan(off, 10'000));
    }
    EXPECT_EQ(pattern_mismatch(10, 0, ByteSpan{theirs}), -1);
    ++d;
  }(w.at(1), done));
  w.cluster.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(SocketEdge, ManyTinyWritesOneBigRead) {
  World w(2);
  w.at(1).listen(2);
  bool done = false;
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 2);
    Bytes all = pattern_bytes(4, 500);
    for (std::size_t i = 0; i < 500; ++i) {
      co_await c->send(ByteSpan{all}.subspan(i, 1));  // 1-byte writes
    }
  }(w.at(0)));
  w.eng.spawn([](SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(2);
    Bytes buf(500);
    co_await c->recv_exact(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(4, 0, ByteSpan{buf}), -1);
    d = true;
  }(w.at(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST(SocketEdge, EofAfterBufferedDataIsDrainedLast) {
  World w(2);
  w.at(1).listen(3);
  bool done = false;
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 3);
    Bytes m(100);
    co_await c->send(ByteSpan{m});
    co_await c->close();  // FIN chases the data
  }(w.at(0)));
  w.eng.spawn([](Engine& e, SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(3);
    co_await e.delay(sim::ms(1));  // FIN and data both arrived
    co_await s.fm().poll_until([&] { return c->buffered() == 100; });
    EXPECT_FALSE(c->eof());  // buffered data must be readable first
    Bytes buf(100);
    EXPECT_EQ(co_await c->recv(MutByteSpan{buf}), 100u);
    EXPECT_TRUE(c->eof());
    Bytes more(10);
    EXPECT_EQ(co_await c->recv(MutByteSpan{more}), 0u);
    d = true;
  }(w.eng, w.at(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST(SocketEdge, ZeroByteRecvReturnsImmediately) {
  World w(2);
  w.at(1).listen(4);
  bool done = false;
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    (void)co_await s.connect(1, 4);
  }(w.at(0)));
  w.eng.spawn([](SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(4);
    EXPECT_EQ(co_await c->recv({}), 0u);  // empty buffer: no blocking
    d = true;
  }(w.at(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST(SocketEdge, PartialReadLeavesRemainderBuffered) {
  World w(2);
  w.at(1).listen(5);
  bool done = false;
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 5);
    Bytes m = pattern_bytes(8, 1000);
    co_await c->send(ByteSpan{m});
  }(w.at(0)));
  w.eng.spawn([](Engine& e, SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(5);
    co_await e.delay(sim::ms(1));
    co_await s.fm().poll_until([&] { return c->buffered() == 1000; });
    Bytes first(300);
    EXPECT_EQ(co_await c->recv(MutByteSpan{first}), 300u);
    EXPECT_EQ(c->buffered(), 700u);
    Bytes rest(700);
    co_await c->recv_exact(MutByteSpan{rest});
    EXPECT_EQ(pattern_mismatch(8, 0, ByteSpan{first}), -1);
    EXPECT_EQ(pattern_mismatch(8, 300, ByteSpan{rest}), -1);
    d = true;
  }(w.eng, w.at(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST(SocketEdge, AcceptBeforeConnectAlsoWorks) {
  World w(2);
  w.at(1).listen(6);
  bool done = false;
  // Accept is issued first and blocks until the SYN arrives.
  w.eng.spawn([](SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(6);
    EXPECT_EQ(c->peer_node(), 0);
    d = true;
  }(w.at(1), done));
  w.eng.spawn([](Engine& e, SocketFm& s) -> Task<void> {
    co_await e.delay(sim::us(500));
    (void)co_await s.connect(1, 6);
  }(w.eng, w.at(0)));
  w.cluster.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace fmx::sock
