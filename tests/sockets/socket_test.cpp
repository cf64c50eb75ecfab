#include "sockets/socket_fm.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "myrinet/parallel_cluster.hpp"

namespace fmx::sock {
namespace {

using sim::Engine;
using sim::Task;

struct World {
  explicit World(int n, fm2::Config fm_cfg = {})
      : cluster(net::ppro_fm2_cluster(n), 1) {
    for (int i = 0; i < n; ++i) {
      eps.push_back(std::make_unique<fm2::Endpoint>(
          cluster.node(i), cluster.fabric_of(i), fm_cfg));
      stacks.push_back(std::make_unique<SocketFm>(*eps.back()));
    }
  }
  SocketFm& at(int i) { return *stacks[i]; }

  net::ParallelCluster cluster;
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  std::vector<std::unique_ptr<SocketFm>> stacks;
};

TEST(SocketFm, ConnectAcceptEstablishes) {
  World w(2);
  w.at(1).listen(80);
  bool client_ok = false, server_ok = false;
  w.eng.spawn([](SocketFm& s, bool& ok) -> Task<void> {
    Socket* c = co_await s.connect(1, 80);
    EXPECT_EQ(c->peer_node(), 1);
    ok = true;
  }(w.at(0), client_ok));
  w.eng.spawn([](SocketFm& s, bool& ok) -> Task<void> {
    Socket* c = co_await s.accept(80);
    EXPECT_EQ(c->peer_node(), 0);
    ok = true;
  }(w.at(1), server_ok));
  w.cluster.run();
  EXPECT_TRUE(client_ok);
  EXPECT_TRUE(server_ok);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(SocketFm, EchoRoundTrip) {
  World w(2);
  w.at(1).listen(7);
  bool done = false;
  w.eng.spawn([](SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.connect(1, 7);
    Bytes msg = pattern_bytes(1, 300);
    co_await c->send(ByteSpan{msg});
    Bytes back(300);
    co_await c->recv_exact(MutByteSpan{back});
    EXPECT_EQ(back, msg);
    d = true;
  }(w.at(0), done));
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    Socket* c = co_await s.accept(7);
    Bytes buf(300);
    co_await c->recv_exact(MutByteSpan{buf});
    co_await c->send(ByteSpan{buf});
  }(w.at(1)));
  w.cluster.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(SocketFm, LargeTransferIntegrityAndFragmentation) {
  World w(2);
  w.at(1).listen(9);
  constexpr std::size_t kBig = 256 * 1024;  // 32 fragments of 8 KB
  bool done = false;
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 9);
    Bytes msg = pattern_bytes(5, kBig);
    co_await c->send(ByteSpan{msg});
    co_await c->close();
  }(w.at(0)));
  w.eng.spawn([](SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(9);
    Bytes buf(kBig);
    co_await c->recv_exact(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(5, 0, ByteSpan{buf}), -1);
    // Next recv: EOF.
    Bytes extra(16);
    EXPECT_EQ(co_await c->recv(MutByteSpan{extra}), 0u);
    d = true;
  }(w.at(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST(SocketFm, StreamHasNoMessageBoundaries) {
  World w(2);
  w.at(1).listen(5);
  bool done = false;
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 5);
    // Three sends...
    Bytes all = pattern_bytes(2, 90);
    co_await c->send(ByteSpan{all}.subspan(0, 30));
    co_await c->send(ByteSpan{all}.subspan(30, 30));
    co_await c->send(ByteSpan{all}.subspan(60, 30));
  }(w.at(0)));
  w.eng.spawn([](SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(5);
    // ...read back in two odd-sized pieces.
    Bytes buf(90);
    co_await c->recv_exact(MutByteSpan{buf}.subspan(0, 77));
    co_await c->recv_exact(MutByteSpan{buf}.subspan(77, 13));
    EXPECT_EQ(pattern_mismatch(2, 0, ByteSpan{buf}), -1);
    d = true;
  }(w.at(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST(SocketFm, PendingRecvTakesZeroCopyPath) {
  World w(2);
  w.at(1).listen(4);
  bool done = false;
  Socket* srv = nullptr;
  w.eng.spawn([](SocketFm& s, Socket*& out, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(4);
    out = c;
    Bytes buf(64 * 1024);
    co_await c->recv_exact(MutByteSpan{buf});  // posted before data arrives
    d = true;
  }(w.at(1), srv, done));
  w.eng.spawn([](Engine& e, SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 4);
    co_await e.delay(sim::us(100));  // let the server's recv get posted
    Bytes msg(64 * 1024);
    co_await c->send(ByteSpan{msg});
  }(w.eng, w.at(0)));
  w.cluster.run();
  ASSERT_TRUE(done);
  // The bulk of the data went straight into the user buffer.
  EXPECT_GT(w.at(1).stats().zero_copy_bytes, 60 * 1024u);
}

TEST(SocketFm, UnreadDataIsBuffered) {
  World w(2);
  w.at(1).listen(4);
  bool sent = false;
  w.eng.spawn([](SocketFm& s, bool& f) -> Task<void> {
    Socket* c = co_await s.connect(1, 4);
    Bytes msg(1024);
    co_await c->send(ByteSpan{msg});
    f = true;
  }(w.at(0), sent));
  Socket* srv = nullptr;
  w.eng.spawn([](SocketFm& s, Socket*& out, bool& f) -> Task<void> {
    Socket* c = co_await s.accept(4);
    out = c;
    // Extract without a posted recv: data must be buffered.
    co_await s.fm().poll_until([&] { return f && c->buffered() >= 1024; });
  }(w.at(1), srv, sent));
  w.cluster.run();
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->buffered(), 1024u);
  EXPECT_GE(w.at(1).stats().buffered_bytes, 1024u);
  // A later recv drains the buffer.
  bool got = false;
  w.eng.spawn([](Socket* c, bool& g) -> Task<void> {
    Bytes buf(1024);
    co_await c->recv_exact(MutByteSpan{buf});
    g = true;
  }(srv, got));
  w.cluster.run();
  EXPECT_TRUE(got);
}

TEST(SocketFm, TwoConnectionsMultiplexOneNode) {
  World w(3);
  w.at(2).listen(8);
  int done = 0;
  for (int client = 0; client < 2; ++client) {
    w.eng.spawn([](SocketFm& s, int me) -> Task<void> {
      Socket* c = co_await s.connect(2, 8);
      Bytes msg = pattern_bytes(me, 5000);
      co_await c->send(ByteSpan{msg});
    }(w.at(client), client));
  }
  for (int k = 0; k < 2; ++k) {
    w.eng.spawn([](SocketFm& s, int& d) -> Task<void> {
      Socket* c = co_await s.accept(8);
      Bytes buf(5000);
      co_await c->recv_exact(MutByteSpan{buf});
      EXPECT_EQ(pattern_mismatch(c->peer_node(), 0, ByteSpan{buf}), -1);
      ++d;
    }(w.at(2), done));
  }
  w.cluster.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(SocketFm, SendAfterCloseThrows) {
  World w(2);
  w.at(1).listen(1);
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 1);
    co_await c->close();
    Bytes b(8);
    EXPECT_THROW(co_await c->send(ByteSpan{b}), std::logic_error);
  }(w.at(0)));
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    (void)co_await s.accept(1);
  }(w.at(1)));
  w.cluster.run();
}

TEST(SocketFm, ReceiverPacingStallsSender) {
  fm2::Config fm_cfg;
  fm_cfg.credits_per_peer = 4;
  World w(2, fm_cfg);
  w.at(1).listen(2);
  int fragments_sent = 0;
  w.eng.spawn([](SocketFm& s, int& sent) -> Task<void> {
    Socket* c = co_await s.connect(1, 2);
    Bytes chunk(8 * 1024);
    for (int i = 0; i < 32; ++i) {
      co_await c->send(ByteSpan{chunk});
      ++sent;
    }
  }(w.at(0), fragments_sent));
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    (void)co_await s.accept(2);
    // Accept but never recv: stop extracting.
  }(w.at(1)));
  w.cluster.run();
  // The sender must be stalled well short of 32 fragments: the receiver
  // withheld credits by not extracting.
  EXPECT_LT(fragments_sent, 16);
  EXPECT_EQ(w.eng.pending_roots(), 1);
}

}  // namespace
}  // namespace fmx::sock
