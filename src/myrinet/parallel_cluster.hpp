// Sharded cluster for conservative parallel execution (sim/parallel.hpp).
//
// Partitioning: each shard owns a contiguous range of nodes (host + I/O bus
// + NIC — all of a node's events stay on its shard) plus its own replica of
// the switch fabric. A replica carries the full link topology, but only the
// links a shard arbitrates matter: a packet to a local destination reserves
// its whole path here; a packet to a remote destination reserves its
// source-side links here, then Fabric::transmit posts it to the
// destination shard's engine mailbox with its head-arrival time and a
// deterministic order key (source node, per-source-shard counter). The
// destination replica reserves the final downlink, applies SRAM
// back-pressure and fault hooks, and delivers — so per-packet semantics
// are identical at every thread count.
//
// Each shard also gets its own buffer pool, tracer and (optionally) fault
// injector, so no mutable state is shared between shards; workers
// meet only through published horizons and the engine's mailboxes.
// Per-shard traces merge deterministically via trace::merge_streams.
//
// This is the only cluster type: a 1-shard cluster is the serial machine,
// and its run() executes on the caller's thread.
//
// Note on fidelity, 1 shard vs k shards: back-pressure on a cross-shard
// path is exerted at the destination's downlink (where the STOP/GO signal
// physically originates) instead of at injection time, and inter-switch
// links are arbitrated per source shard. Single-switch clusters
// (n_hosts <= hosts_per_switch, e.g. the 8-node FM2 preset) have no
// inter-switch links, so only the back-pressure timing differs from the
// 1-shard run; results are bit-identical across thread counts at a fixed
// shard count either way.
//
// Workload code must keep its conditions node-local: a poll_until on one
// node watching state mutated by another node's handler works while both
// nodes share a shard (any event there re-polls) but deadlocks once they
// sit on different shards — when the watcher's shard goes idle, nothing
// local wakes the poller. Have each node wait on its own counters (run()
// reports such stuck tasks in RunResult::pending_roots).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "myrinet/node.hpp"
#include "sim/parallel.hpp"
#include "trace/trace.hpp"

namespace fmx::net {

class ParallelCluster {
 public:
  /// `n_shards` defaults (0) to one shard per node.
  explicit ParallelCluster(const ClusterParams& p, int n_shards = 0);
  ParallelCluster(const ParallelCluster&) = delete;
  ParallelCluster& operator=(const ParallelCluster&) = delete;

  int size() const noexcept { return params_.n_hosts; }
  int n_shards() const noexcept { return n_shards_; }
  int shard_of(int node) const { return shard_of_[node]; }
  const ClusterParams& params() const noexcept { return params_; }

  /// Static per-pair lookahead: min head latency of any cross-shard path
  /// from a host of `src_shard` to a host of `dst_shard` (metric-closed).
  sim::Ps lookahead(int src_shard, int dst_shard) const {
    return par_.lookahead(src_shard, dst_shard);
  }
  sim::Engine& shard_engine(int s) { return par_.shard(s); }
  sim::Engine& engine_of(int node) { return par_.shard(shard_of_[node]); }
  Fabric& shard_fabric(int s) { return *fabrics_[s]; }
  Fabric& fabric_of(int node) { return *fabrics_[shard_of_[node]]; }
  Node& node(int i) { return *nodes_[i]; }

  /// Spawn a root task on the shard that owns `node`, starting at the
  /// cluster-wide maximum engine clock. Shard clocks quiesce at different
  /// instants (each stops at its own last event), and roots launched at
  /// each shard's local `now` would start a fresh wave already skewed —
  /// the laggard shard then clamps every peer's conservative bound, and
  /// the residue compounds wave over wave. Aligning the start resets the
  /// skew. Only callable between runs (no workers active), which is the
  /// only time reading foreign shard clocks is race-free.
  void spawn_on(int node, sim::Task<void> t) {
    sim::Ps t0 = 0;
    for (int s = 0; s < par_.n_shards(); ++s) {
      t0 = std::max(t0, par_.shard(s).now());
    }
    engine_of(node).spawn_at(t0, std::move(t));
  }

  using RunResult = sim::ParallelEngine::RunResult;
  /// Run to global quiescence on `n_threads` workers (clamped to
  /// [1, n_shards]). Results are identical for every thread count.
  RunResult run(int n_threads = 1) { return par_.run(n_threads); }

  /// Enable tracing on every shard's tracer (per-shard capacity).
  void enable_tracing(std::size_t capacity_events = 1 << 18);
  /// Deterministically merged trace across all shards.
  std::vector<trace::Event> merged_trace() const;

  /// Fabric stats summed across replicas (packets/bytes count on the source
  /// shard; drops/corruptions/duplicates on the destination shard).
  Fabric::Stats fabric_stats() const;

 private:
  void emission_bound(int shard, sim::Ps e, sim::Ps* out) const;

  ClusterParams params_;
  int n_shards_;
  std::vector<std::int32_t> shard_of_;
  // Static source-side head latency host -> destination shard: the minimum
  // time from an emission on host `a` to a packet head reaching any host
  // of shard `d` (uplink + switch chain; row-major n_hosts x n_shards).
  // emission_bound adds this to max(uplink next-free, NIC wire floor); its
  // minimum over each source shard's hosts is the engine's lookahead.
  std::vector<sim::Ps> sl_host_;
  std::vector<int> shard_begin_;  // host range [shard_begin_[s], shard_begin_[s+1])
  sim::ParallelEngine par_;
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace fmx::net
