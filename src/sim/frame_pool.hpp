// Size-bucketed free-list allocator for coroutine frames. Every co_await of
// a sim::Task (Channel::push/pop, Fabric::transmit, Host::compute, ...)
// creates a coroutine frame; with plain operator new that is a malloc/free
// pair per call — i.e. per simulated packet. (Waits whose whole body would
// be one delay — Host::sync, SerialResource::occupy — return the engine's
// awaiter instead and create no frame.) Frame sizes repeat (the same coroutines
// run millions of times), so a per-size free list reaches steady state after
// warm-up and the simulation's hot paths stop allocating entirely.
//
// Each thread gets its own pool (thread_local): a shard engine driven by a
// parallel-run worker (sim/parallel.hpp) recycles frames through its own
// free lists with no locks, keeping the hot path allocation-free per shard.
// A frame freed on a different thread (e.g. spawned on the main thread,
// completed by a worker) returns to its owning pool through a lock-free
// remote stack, so cross-thread spawns cannot drain any pool one-way.
// Memory is carved from slabs that are retained for the life of the
// process — frames are recycled, never returned to malloc.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fmx::sim {

struct FramePoolStats {
  std::uint64_t allocs = 0;       // frame_alloc calls
  std::uint64_t frees = 0;        // frame_free calls
  std::uint64_t slab_allocs = 0;  // times a new slab was carved from malloc
  std::uint64_t oversize = 0;     // requests too big to pool (fell to new)
  std::uint64_t recycled = 0;     // allocs served from a free list
  std::uint64_t remote_frees = 0;  // frames returned to a foreign pool
};

namespace detail {

void* frame_alloc(std::size_t n);
void frame_free(void* p, std::size_t n) noexcept;

}  // namespace detail

/// Counters for the calling thread's pool (pools are thread_local).
const FramePoolStats& frame_pool_stats() noexcept;

/// Mixin: give a coroutine promise pooled frame allocation.
/// `struct promise_type : PooledFrame { ... };`
struct PooledFrame {
  static void* operator new(std::size_t n) { return detail::frame_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    detail::frame_free(p, n);
  }
};

}  // namespace fmx::sim
