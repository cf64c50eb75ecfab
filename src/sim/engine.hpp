// Deterministic single-threaded discrete-event engine. Events at equal
// timestamps run in schedule order (FIFO tie-break), so every simulation is
// exactly reproducible.
//
// The hot path is allocation-free in steady state: an event is a 16-byte
// (time, seq) key plus either a raw coroutine handle or a small-buffer
// callable (no heap for captures that fit kInlineBytes), the pending set is
// a 4-ary min-heap in one contiguous vector, and spawn() drives the root
// task from a pool-allocated driver frame instead of a shared_ptr + lambda.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace fmx::sim {

/// Move-only callable with small-buffer optimization. Callables whose state
/// fits kInlineBytes (every scheduler lambda in the tree) are stored in
/// place; larger ones fall back to one heap allocation, preserving the old
/// std::function semantics for arbitrary user code.
class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             !std::is_convertible_v<F, std::coroutine_handle<>> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_trivially_copyable_v<Fn>) {
      // Trivially-copyable inline callable (the vast majority: lambdas
      // capturing pointers/ints). manage_ stays null — relocation is a
      // memcpy in move_from, destruction is a no-op — so heap sifts moving
      // Events make no indirect call per element.
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
    } else if constexpr (sizeof(Fn) <= kInlineBytes &&
                         alignof(Fn) <= alignof(std::max_align_t) &&
                         std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      manage_ = [](Op op, void* p, void* q) noexcept {
        Fn* self = std::launder(reinterpret_cast<Fn*>(p));
        if (op == Op::kRelocate) {
          ::new (q) Fn(std::move(*self));
        }
        self->~Fn();
      };
    } else {
      auto** slot = reinterpret_cast<Fn**>(buf_);
      *slot = new Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); };
      manage_ = [](Op op, void* p, void* q) noexcept {
        Fn** self = std::launder(reinterpret_cast<Fn**>(p));
        if (op == Op::kRelocate) {
          *reinterpret_cast<Fn**>(q) = *self;
        } else {
          delete *self;
        }
      };
    }
  }

  SmallFn(SmallFn&& o) noexcept { move_from(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }
  void operator()() { invoke_(buf_); }

 private:
  enum class Op : std::uint8_t { kRelocate, kDestroy };

  void move_from(SmallFn& o) noexcept {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_ != nullptr) {
      o.manage_(Op::kRelocate, o.buf_, buf_);
    } else if (invoke_ != nullptr) {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(Op, void*, void*) noexcept = nullptr;
};

class Engine {
 public:
  Engine() {
    // Callback slots recycle through free_fn_slots_, so growth stops at the
    // peak number of simultaneously scheduled callbacks. Reserve past any
    // realistic peak up front so the event hot path never allocates, even
    // when a deep burst first occurs mid-measurement.
    fn_slots_.reserve(256);
    free_fn_slots_.reserve(256);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Pre-size the event heap and callback-slot tables for a peak of
  /// `events` simultaneously scheduled events. The defaults suit a serial
  /// engine, where queue depth tracks the workload's natural concurrency;
  /// a parallel-run shard can receive an entire mailbox drain batch in
  /// one burst (ParallelCluster calls this with its mailbox bounds) and the
  /// burst depth depends on wall-clock thread skew — growth mid-run would
  /// be a timing-dependent allocation in an otherwise allocation-free
  /// steady state.
  void reserve_events(std::size_t events) {
    queue_.reserve(events);
    fn_slots_.reserve(events);
    free_fn_slots_.reserve(events);
  }

  Ps now() const noexcept { return now_; }

  /// Schedule a callback at absolute time t (>= now).
  void schedule_at(Ps t, SmallFn fn);
  void schedule_at(Ps t, std::coroutine_handle<> h);

  /// Sequence-number band reserved for cross-shard arrivals in parallel
  /// runs (sim/parallel.hpp). Locally-scheduled events use the incrementing
  /// counter below this bit, so at equal timestamps every local event
  /// precedes every cross-shard event, and cross-shard events order among
  /// themselves by their explicit key — which the sender derives from
  /// (source node, per-source counter). The merged order therefore depends
  /// only on simulated state, never on when a peer shard's messages were
  /// drained, which is what makes parallel execution bit-identical at any
  /// thread count.
  static constexpr std::uint64_t kCrossSeqBand = std::uint64_t{1} << 63;

  /// Schedule a cross-shard arrival at absolute time t (>= now) with an
  /// explicit tie-break key (< kCrossSeqBand) instead of the local counter.
  void schedule_cross(Ps t, std::uint64_t key, SmallFn fn);
  void schedule_in(Ps dt, SmallFn fn) { schedule_at(now_ + dt, std::move(fn)); }
  void schedule_in(Ps dt, std::coroutine_handle<> h) {
    schedule_at(now_ + dt, h);
  }

  /// Launch a detached root task at the current time. The engine tracks the
  /// number of unfinished roots so tests can detect deadlock (events drained
  /// while roots are still suspended on conditions that will never fire).
  void spawn(Task<void> task);

  /// Like spawn, but starts the root at time `t` (clamped to now). Lets a
  /// multi-engine harness launch work at a common instant even when the
  /// engines' clocks drifted apart during a previous run.
  void spawn_at(Ps t, Task<void> task);

  /// Like spawn, but for server loops that intentionally never finish (NIC
  /// control programs, switch ports). Not counted in pending_roots().
  void spawn_daemon(Task<void> task);

  /// Awaitable: resume after dt picoseconds of simulated time.
  auto delay(Ps dt) { return DelayAwaiter{*this, now_ + dt}; }
  /// Awaitable: resume at absolute simulated time t (>= now).
  auto sleep_until(Ps t) { return DelayAwaiter{*this, t < now_ ? now_ : t}; }

  /// Run until the event queue is empty or `until` is reached.
  /// Returns the number of events processed by this call (the delta of
  /// events_processed() across it).
  std::uint64_t run(Ps until = std::numeric_limits<Ps>::max());

  /// Run events strictly below `*cap`, rereading the cap before every
  /// event: code executed *by* an event may lower it mid-run (the parallel
  /// scheduler does, when an event emits a cross-shard message whose echo
  /// bounds how far this shard may safely advance). Unlike run(), never
  /// advances the clock past the last executed event: an idle engine keeps
  /// now() at its last activity instead of jumping to the cap, so a
  /// shard's final clock is a pure function of its event history, not of
  /// the horizon its worker happened to observe — quantum boundaries are
  /// thread-timing-dependent, clocks must not be. The cap must only be
  /// written from this thread (it is reread, not synchronized).
  std::uint64_t run_below(const Ps* cap);

  /// Process a single event; returns false if the queue is empty.
  bool step();

  bool idle() const noexcept { return queue_.empty(); }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Timestamp of the earliest pending event, or Ps max when idle. Used by
  /// the parallel scheduler to pick the next conservative window.
  Ps next_event_time() const noexcept {
    return queue_.empty() ? std::numeric_limits<Ps>::max() : queue_.min_time();
  }

  /// Unfinished root tasks. Nonzero after run() to exhaustion == deadlock.
  int pending_roots() const noexcept { return live_roots_; }

 private:
  struct [[nodiscard]] DelayAwaiter {
    Engine& eng;
    Ps wake;
    bool await_ready() const noexcept { return wake <= eng.now_; }
    void await_suspend(std::coroutine_handle<> h) { eng.schedule_at(wake, h); }
    void await_resume() const noexcept {}
  };

  /// Heap entry: 24 trivially-copyable bytes. `payload` is a tagged word —
  /// low bit clear: the address of a coroutine frame to resume (the hot
  /// majority: channel wakeups, delays); low bit set: (slot << 1) | 1 into
  /// fn_slots_. Keeping callables out of line means sifts move three words
  /// instead of a 96-byte Event with a non-trivial member.
  struct HeapEvent {
    Ps t;
    std::uint64_t seq;
    std::uintptr_t payload;
  };
  static_assert(sizeof(HeapEvent) == 24);  // three words per sift move

  /// 4-ary min-heap keyed on (t, seq) in one contiguous vector. Shallower
  /// than a binary heap, and with 24-byte entries the four children of a
  /// node share 1.5 cache lines. The (t, seq) key is a total order, so pop
  /// order — and therefore the simulation — is identical to the old
  /// std::priority_queue regardless of internal heap layout.
  class EventQueue {
   public:
    bool empty() const noexcept { return v_.empty(); }
    std::size_t size() const noexcept { return v_.size(); }
    Ps min_time() const noexcept { return v_.front().t; }
    void reserve(std::size_t n) { v_.reserve(n); }

    void push(HeapEvent e) {
      v_.push_back(e);
      sift_up(v_.size() - 1);
    }

    HeapEvent pop_min() {
      HeapEvent out = v_.front();
      HeapEvent displaced = v_.back();
      v_.pop_back();
      if (!v_.empty()) sift_hole_down(displaced);
      return out;
    }

   private:
    static bool before(const HeapEvent& a, const HeapEvent& b) noexcept {
      return a.t != b.t ? a.t < b.t : a.seq < b.seq;
    }
    void sift_up(std::size_t i);
    void sift_hole_down(HeapEvent displaced);

    std::vector<HeapEvent> v_;
  };

  Ps now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  int live_roots_ = 0;
  int daemon_roots_ = 0;
  EventQueue queue_;
  // Out-of-line callable storage for SmallFn events; slots recycle LIFO so
  // the working set stays hot and steady state never allocates.
  std::vector<SmallFn> fn_slots_;
  std::vector<std::uint32_t> free_fn_slots_;
};

}  // namespace fmx::sim
