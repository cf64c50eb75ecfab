// Bounded awaitable FIFO. A full channel blocks pushers — this is how
// back-pressure propagates through the simulated network (link slack
// buffers, NIC inbound queues, switch ports).
//
// Two classes of consumers wait on a channel and each has its own wake
// queue, so wakeups are selective: pop() waiters (pipeline stages that will
// definitely extract an element) sleep on `not_empty_`, while wait_nonempty
// pollers (libraries that re-check an external predicate, FM's FM_extract
// loops) sleep on `poll_cv_`. An arriving element wakes one popper if any
// exists, else one poller; poke() broadcasts only to pollers. Under the old
// single-CondVar scheme every push and every poke woke pollers and poppers
// alike, and each had to resume just to discover the wake wasn't for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "sim/ring.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace fmx::sim {

template <typename T>
class Channel {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  Channel(Engine& eng, std::size_t capacity)
      : capacity_(capacity), not_full_(eng), not_empty_(eng), poll_cv_(eng) {}

  /// Blocks (suspends) while the channel is full.
  Task<void> push(T v) {
    while (buf_.size() >= capacity_) co_await not_full_.wait();
    buf_.push_back(std::move(v));
    notify_arrival();
  }

  /// Blocks (suspends) while the channel is empty.
  Task<T> pop() {
    while (buf_.empty()) co_await not_empty_.wait();
    T v = buf_.take_front();
    not_full_.notify_one();
    co_return v;
  }

  /// Suspend until the channel has at least one element (without popping),
  /// or until the next poke(). Lets pollers sleep instead of busy-spinning
  /// the event queue. May wake spuriously; callers' conditions must be
  /// re-checked (all in-tree callers are Mesa-style loops).
  sim::Task<void> wait_nonempty() {
    std::uint64_t gen = poke_gen_;
    while (buf_.empty() && poke_gen_ == gen) co_await poll_cv_.wait();
  }

  /// Wake ALL sleeping pollers once so they re-evaluate external conditions
  /// — needed when one poller's extraction can satisfy another poller's
  /// predicate without any new channel traffic. Poppers are not woken: an
  /// element they could pop cannot have appeared without notify_arrival().
  void poke() {
    ++poke_gen_;
    poll_cv_.notify_all();
  }

  bool try_push(T v) {
    if (buf_.size() >= capacity_) return false;
    buf_.push_back(std::move(v));
    notify_arrival();
    return true;
  }

  std::optional<T> try_pop() {
    if (buf_.empty()) return std::nullopt;
    std::optional<T> v(buf_.take_front());
    not_full_.notify_one();
    return v;
  }

  /// Pre-size the backing ring (see RingQueue::reserve). For a bounded
  /// channel, reserve(capacity()) makes push allocation-free forever.
  void reserve(std::size_t n) { buf_.reserve(n); }

  const T& front() const { return buf_.front(); }
  std::size_t size() const noexcept { return buf_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  bool empty() const noexcept { return buf_.empty(); }

 private:
  /// An element arrived: wake one popper if any is asleep (it will consume
  /// it), otherwise one poller (its extract loop drains the channel and
  /// pokes the rest if anything material happened).
  void notify_arrival() {
    if (not_empty_.waiting() > 0) {
      not_empty_.notify_one();
    } else {
      poll_cv_.notify_one();
    }
  }

  std::size_t capacity_;
  std::uint64_t poke_gen_ = 0;
  RingQueue<T> buf_;
  CondVar not_full_;
  CondVar not_empty_;
  CondVar poll_cv_;
};

}  // namespace fmx::sim
