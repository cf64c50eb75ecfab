// Shared test plumbing for discrete-event simulations. The core helper runs
// an engine or a cluster to event-queue exhaustion and turns "root tasks
// still suspended" — the deadlock signal — into a readable failure instead
// of a bare EXPECT_EQ(pending_roots, 0).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "myrinet/parallel_cluster.hpp"
#include "sim/engine.hpp"

namespace fmx::test {

inline ::testing::AssertionResult deadlock_failure(int pending_roots,
                                                   sim::Ps now,
                                                   std::uint64_t events) {
  return ::testing::AssertionFailure()
         << "DEADLOCK: event queue drained but " << pending_roots
         << " root task(s) are still suspended on conditions that will "
            "never fire (t=" << sim::to_us(now) << " us, " << events
         << " events processed). A coroutine is waiting on a channel, "
            "semaphore, or credit that nothing will ever provide.";
}

/// Drain the engine's event queue; succeed iff every root task finished.
/// Use as: ASSERT_TRUE(run_to_exhaustion(eng)) or EXPECT_TRUE(...).
inline ::testing::AssertionResult run_to_exhaustion(sim::Engine& eng) {
  eng.run();
  if (eng.pending_roots() == 0) return ::testing::AssertionSuccess();
  return deadlock_failure(eng.pending_roots(), eng.now(),
                          eng.events_processed());
}

/// Run the cluster to global quiescence; succeed iff every root task on
/// every shard finished. Reports the latest shard clock and the events
/// this run processed.
inline ::testing::AssertionResult run_to_exhaustion(
    net::ParallelCluster& cluster) {
  const net::ParallelCluster::RunResult r = cluster.run();
  if (r.pending_roots == 0) return ::testing::AssertionSuccess();
  sim::Ps now = 0;
  for (int s = 0; s < cluster.n_shards(); ++s) {
    now = std::max(now, cluster.shard_engine(s).now());
  }
  return deadlock_failure(r.pending_roots, now, r.events);
}

}  // namespace fmx::test
