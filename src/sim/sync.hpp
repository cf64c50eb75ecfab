// Coroutine synchronization primitives on top of the event engine.
// Wakeups are scheduled through the engine at the current timestamp (never
// resumed inline), which keeps event ordering deterministic and stacks flat.
// Waiter queues are RingQueues: steady-state waiting/waking does not touch
// the allocator (std::deque would churn a node allocation per ~64 waits).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>

#include "sim/engine.hpp"
#include "sim/ring.hpp"

namespace fmx::sim {

/// Mesa-style condition variable: `while (!pred) co_await cv.wait();`
class CondVar {
 public:
  explicit CondVar(Engine& eng) : eng_(eng) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  auto wait() {
    struct Awaiter {
      CondVar& cv;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cv.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_one() {
    if (waiters_.empty()) return;
    eng_.schedule_at(eng_.now(), waiters_.take_front());
  }

  void notify_all() {
    while (!waiters_.empty()) {
      eng_.schedule_at(eng_.now(), waiters_.take_front());
    }
  }

  std::size_t waiting() const noexcept { return waiters_.size(); }

 private:
  Engine& eng_;
  RingQueue<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore with FIFO handoff (a release while waiters exist
/// transfers the token directly to the oldest waiter).
class Semaphore {
 public:
  Semaphore(Engine& eng, long initial) : eng_(eng), count_(initial) {
    assert(initial >= 0);
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() const noexcept {
        if (s.count_ > 0) {
          --s.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release(long n = 1) {
    for (long i = 0; i < n; ++i) {
      if (!waiters_.empty()) {
        // token handed to the waiter
        eng_.schedule_at(eng_.now(), waiters_.take_front());
      } else {
        ++count_;
      }
    }
  }

  long available() const noexcept { return count_; }
  std::size_t waiting() const noexcept { return waiters_.size(); }

 private:
  Engine& eng_;
  long count_;
  RingQueue<std::coroutine_handle<>> waiters_;
};

}  // namespace fmx::sim
