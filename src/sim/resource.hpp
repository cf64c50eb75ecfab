// Serially-reusable resource with FIFO service order — models shared buses
// (SBus/PCI), link transmitters, and DMA engines. O(1) per occupancy via a
// virtual "next free time" rather than an explicit waiter queue.
#pragma once

#include <algorithm>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace fmx::sim {

class SerialResource {
 public:
  explicit SerialResource(Engine& eng) : eng_(eng) {}
  SerialResource(const SerialResource&) = delete;
  SerialResource& operator=(const SerialResource&) = delete;

  /// Wait for our FIFO turn, hold the resource for `service`, resume when
  /// done. Requests are ordered by the simulated time of the call. The
  /// slot is reserved at the call and the returned engine awaiter (no
  /// coroutine frame) sleeps until it ends, so await the result at once.
  auto occupy(Ps service) {
    Ps start = std::max(eng_.now(), next_free_);
    next_free_ = start + service;
    busy_ += service;
    return eng_.sleep_until(next_free_);
  }

  /// Reserve without waiting: returns the completion time. Useful when the
  /// caller wants to pipeline (start the next request before this finishes).
  Ps reserve(Ps service) { return reserve_from(eng_.now(), service); }

  /// Reserve with an earliest-start constraint (e.g. "the packet head only
  /// reaches this link at time t"). Returns the completion time.
  Ps reserve_from(Ps earliest, Ps service) {
    Ps start = std::max({eng_.now(), earliest, next_free_});
    next_free_ = start + service;
    busy_ += service;
    return next_free_;
  }

  Ps next_free() const noexcept { return next_free_; }
  Ps busy_time() const noexcept { return busy_; }
  /// Queueing delay a request issued now would experience before service.
  Ps backlog() const noexcept {
    return next_free_ > eng_.now() ? next_free_ - eng_.now() : 0;
  }

 private:
  Engine& eng_;
  Ps next_free_ = 0;
  Ps busy_ = 0;
};

}  // namespace fmx::sim
