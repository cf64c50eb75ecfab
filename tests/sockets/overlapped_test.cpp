#include "sockets/overlapped.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "myrinet/parallel_cluster.hpp"

namespace fmx::sock {
namespace {

using sim::Engine;
using sim::Task;

struct World {
  World() : cluster(net::ppro_fm2_cluster(2), 1) {
    for (int i = 0; i < 2; ++i) {
      eps.push_back(std::make_unique<fm2::Endpoint>(cluster.node(i),
                                                    cluster.fabric_of(i)));
      stacks.push_back(std::make_unique<SocketFm>(*eps.back()));
    }
    stacks[1]->listen(9);
  }
  net::ParallelCluster cluster;
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  std::vector<std::unique_ptr<SocketFm>> stacks;
};

TEST(Overlapped, PostedBuffersCompleteInOrder) {
  World w;
  bool done = false;
  w.eng.spawn([](Engine& e, SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(9);
    Overlapped ov(e, s, *c);
    // Post three buffers BEFORE any data exists.
    Bytes b1(100), b2(100), b3(100);
    IoRequest r1 = ov.async_recv(MutByteSpan{b1});
    IoRequest r2 = ov.async_recv(MutByteSpan{b2});
    IoRequest r3 = ov.async_recv(MutByteSpan{b3});
    EXPECT_FALSE(r1.done());
    EXPECT_EQ(co_await ov.wait(r1), 100u);
    EXPECT_EQ(co_await ov.wait(r2), 100u);
    EXPECT_EQ(co_await ov.wait(r3), 100u);
    EXPECT_EQ(pattern_mismatch(6, 0, ByteSpan{b1}), -1);
    EXPECT_EQ(pattern_mismatch(6, 100, ByteSpan{b2}), -1);
    EXPECT_EQ(pattern_mismatch(6, 200, ByteSpan{b3}), -1);
    d = true;
  }(w.eng, *w.stacks[1], done));
  w.eng.spawn([](Engine& e, SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 9);
    co_await e.delay(sim::us(300));  // let the buffers get posted
    Bytes m = pattern_bytes(6, 300);
    co_await c->send(ByteSpan{m});
  }(w.eng, *w.stacks[0]));
  w.cluster.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(w.eng.pending_roots(), 0);
}

TEST(Overlapped, WaitAnyPicksTheCompletedOne) {
  World w;
  bool done = false;
  w.eng.spawn([](Engine& e, SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(9);
    Overlapped ov(e, s, *c);
    Bytes b1(64), b2(64);
    IoRequest reqs[2] = {ov.async_recv(MutByteSpan{b1}),
                         ov.async_recv(MutByteSpan{b2})};
    int idx = co_await ov.wait_any(reqs);
    EXPECT_EQ(idx, 0);  // in-order completion: the first posted wins
    EXPECT_EQ(reqs[0].bytes(), 64u);
    d = true;
  }(w.eng, *w.stacks[1], done));
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 9);
    Bytes m(64);
    co_await c->send(ByteSpan{m});
  }(*w.stacks[0]));
  w.cluster.run();
  EXPECT_TRUE(done);
}

TEST(Overlapped, SendAndRecvOverlap) {
  World w;
  int done = 0;
  w.eng.spawn([](Engine& e, SocketFm& s, int& d) -> Task<void> {
    Socket* c = co_await s.accept(9);
    Overlapped ov(e, s, *c);
    Bytes in(5000);
    IoRequest r = ov.async_recv(MutByteSpan{in});
    Bytes out = pattern_bytes(2, 5000);
    IoRequest sr = co_await ov.async_send(ByteSpan{out});
    EXPECT_TRUE(sr.done());
    std::size_t got = co_await ov.wait(r);
    EXPECT_GT(got, 0u);
    ++d;
  }(w.eng, *w.stacks[1], done));
  w.eng.spawn([](Engine& e, SocketFm& s, int& d) -> Task<void> {
    Socket* c = co_await s.connect(1, 9);
    Overlapped ov(e, s, *c);
    Bytes out = pattern_bytes(3, 5000);
    (void)co_await ov.async_send(ByteSpan{out});
    Bytes in(5000);
    IoRequest r = ov.async_recv(MutByteSpan{in});
    co_await ov.wait(r);
    ++d;
  }(w.eng, *w.stacks[0], done));
  w.cluster.run();
  EXPECT_EQ(done, 2);
}

TEST(Overlapped, EofCompletesPostedRecvWithZero) {
  World w;
  bool done = false;
  w.eng.spawn([](Engine& e, SocketFm& s, bool& d) -> Task<void> {
    Socket* c = co_await s.accept(9);
    Overlapped ov(e, s, *c);
    Bytes b(64);
    IoRequest r = ov.async_recv(MutByteSpan{b});
    EXPECT_EQ(co_await ov.wait(r), 0u);
    EXPECT_TRUE(r.eof());
    d = true;
  }(w.eng, *w.stacks[1], done));
  w.eng.spawn([](SocketFm& s) -> Task<void> {
    Socket* c = co_await s.connect(1, 9);
    co_await c->close();  // no data, straight to FIN
  }(*w.stacks[0]));
  w.cluster.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace fmx::sock
