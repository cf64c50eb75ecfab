#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace fmx::sim {
namespace {

TEST(Channel, FifoOrderPreserved) {
  Engine eng;
  Channel<int> ch(eng, 4);
  std::vector<int> got;
  eng.spawn([](Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 10; ++i) co_await c.push(i);
  }(ch));
  eng.spawn([](Channel<int>& c, std::vector<int>& g) -> Task<void> {
    for (int i = 0; i < 10; ++i) g.push_back(co_await c.pop());
  }(ch, got));
  eng.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(Channel, PushBlocksWhenFull) {
  Engine eng;
  Channel<int> ch(eng, 2);
  int pushed = 0;
  eng.spawn([](Channel<int>& c, int& p) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await c.push(i);
      ++p;
    }
  }(ch, pushed));
  eng.run();
  EXPECT_EQ(pushed, 2);  // back-pressure: producer stuck on the 3rd push
  EXPECT_EQ(eng.pending_roots(), 1);
  // Draining unblocks it.
  eng.spawn([](Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 5; ++i) EXPECT_EQ(co_await c.pop(), i);
  }(ch));
  eng.run();
  EXPECT_EQ(pushed, 5);
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(Channel, PopBlocksWhenEmpty) {
  Engine eng;
  Channel<int> ch(eng, 2);
  bool got = false;
  eng.spawn([](Channel<int>& c, bool& g) -> Task<void> {
    EXPECT_EQ(co_await c.pop(), 42);
    g = true;
  }(ch, got));
  eng.run();
  EXPECT_FALSE(got);
  EXPECT_TRUE(ch.try_push(42));
  eng.run();
  EXPECT_TRUE(got);
}

TEST(Channel, TryOperations) {
  Engine eng;
  Channel<int> ch(eng, 1);
  EXPECT_FALSE(ch.try_pop().has_value());
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_FALSE(ch.try_push(2));  // full
  auto v = ch.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, MultipleProducersSingleConsumer) {
  Engine eng;
  Channel<int> ch(eng, 3);
  for (int p = 0; p < 4; ++p) {
    eng.spawn([](Engine& e, Channel<int>& c, int id) -> Task<void> {
      for (int i = 0; i < 5; ++i) {
        co_await e.delay(us(1));
        co_await c.push(id * 100 + i);
      }
    }(eng, ch, p));
  }
  std::vector<int> got;
  eng.spawn([](Channel<int>& c, std::vector<int>& g) -> Task<void> {
    for (int i = 0; i < 20; ++i) g.push_back(co_await c.pop());
  }(ch, got));
  eng.run();
  EXPECT_EQ(got.size(), 20u);
  // Per-producer order is preserved even though producers interleave.
  for (int p = 0; p < 4; ++p) {
    int last = -1;
    for (int v : got) {
      if (v / 100 == p) {
        EXPECT_GT(v % 100, last);
        last = v % 100;
      }
    }
    EXPECT_EQ(last, 4);
  }
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(Channel, PokeWakesAllSleepersOnce) {
  Engine eng;
  Channel<int> ch(eng, 4);
  int wakeups = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Channel<int>& c, int& w) -> Task<void> {
      co_await c.wait_nonempty();  // returns on data OR poke
      ++w;
    }(ch, wakeups));
  }
  eng.run();
  EXPECT_EQ(wakeups, 0);
  ch.poke();
  eng.run();
  EXPECT_EQ(wakeups, 3);  // ALL sleepers re-check, not just one
  EXPECT_EQ(eng.pending_roots(), 0);
  // A sleeper arriving after the poke is not woken by it.
  eng.spawn([](Channel<int>& c, int& w) -> Task<void> {
    co_await c.wait_nonempty();
    ++w;
  }(ch, wakeups));
  eng.run();
  EXPECT_EQ(wakeups, 3);
  EXPECT_EQ(eng.pending_roots(), 1);
  EXPECT_TRUE(ch.try_push(1));
  eng.run();
  EXPECT_EQ(wakeups, 4);
}

TEST(Channel, UnboundedNeverBlocksPush) {
  Engine eng;
  Channel<int> ch(eng, Channel<int>::kUnbounded);
  eng.spawn([](Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 1000; ++i) co_await c.push(i);
  }(ch));
  eng.run();
  EXPECT_EQ(ch.size(), 1000u);
  EXPECT_EQ(eng.pending_roots(), 0);
}

}  // namespace
}  // namespace fmx::sim
