#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace fmx::sim {
namespace {

TEST(CondVar, NotifyOneWakesInFifoOrder) {
  Engine eng;
  CondVar cv(eng);
  std::vector<int> woke;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](CondVar& c, std::vector<int>& w, int id) -> Task<void> {
      co_await c.wait();
      w.push_back(id);
    }(cv, woke, i));
  }
  eng.run();
  EXPECT_EQ(cv.waiting(), 3u);
  cv.notify_one();
  eng.run();
  EXPECT_EQ(woke, (std::vector<int>{0}));
  cv.notify_all();
  eng.run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(CondVar, WaiterBlocksUntilNotified) {
  Engine eng;
  CondVar cv(eng);
  bool flag = false;
  eng.spawn([](CondVar& c, bool& f) -> Task<void> {
    while (!f) co_await c.wait();
  }(cv, flag));
  eng.run();
  EXPECT_EQ(eng.pending_roots(), 1);  // deadlocked on purpose
  flag = true;
  cv.notify_all();
  eng.run();
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(Semaphore, CountsAndBlocks) {
  Engine eng;
  Semaphore sem(eng, 2);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Semaphore& s, std::vector<int>& o,
                 int id) -> Task<void> {
      co_await s.acquire();
      o.push_back(id);
      co_await e.delay(us(10));
      s.release();
    }(eng, sem, order, i));
  }
  eng.run();
  // 0 and 1 enter immediately; 2 and 3 at t=10us in FIFO order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sem.available(), 2);
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(Semaphore, ReleaseHandsTokenDirectlyToWaiter) {
  Engine eng;
  Semaphore sem(eng, 0);
  bool got = false;
  eng.spawn([](Semaphore& s, bool& g) -> Task<void> {
    co_await s.acquire();
    g = true;
  }(sem, got));
  eng.run();
  EXPECT_FALSE(got);
  sem.release();
  eng.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(sem.available(), 0);  // token was consumed by the waiter
}

}  // namespace
}  // namespace fmx::sim
