// Open-loop traffic engine for datacenter-scale fabric experiments.
//
// A Schedule is a deterministic, topology- and thread-count-independent
// list of flows (who sends what to whom, and when): Poisson arrivals per
// sending host, heavy-tailed sizes, and a destination pattern (uniform,
// permutation, incast, hotspot). The TrafficEngine then replays a schedule
// over real fm2::Endpoints on a ParallelCluster — one sender coroutine per
// host paces its own flows by scheduled arrival time, handlers on the
// receive side timestamp each flow at four points, and per-layer latency
// histograms (trace::Histogram in picoseconds, owned by the engine per
// shard, merged after the run) report p50/p99/p999 for:
//
//   src_queue  scheduled arrival -> injection start (how far the
//              finite-rate sender fell behind the open-loop schedule;
//              the send-side queueing tail)
//   transit    injection -> first packet out of the fabric
//              (wire + switching + fabric contention)
//   deliver    fabric arrival -> handler start (receive-ring wait:
//              extract scheduling + handler backlog)
//   handler    handler start -> last byte consumed
//   e2e        scheduled arrival -> handler done
//
// "Open loop" is the load-generation discipline: arrival times are fixed
// up front and never react to the system under test, so when the fabric or
// a victim host saturates, lateness accumulates in the tails instead of
// the offered load silently throttling itself (the flaw closed-loop
// benchmarks share). Each per-flow record is 16 bytes; a million-flow
// schedule is ~16 MB plus one completion timestamp per flow.
//
// Everything is steady-state allocation-free: flow state lives in
// pre-sized vectors indexed by a dense global flow id, handlers receive
// into per-node scratch and skip the rest, and completion timestamps are
// disjoint per-flow writes (safe across shards). Termination is node-local
// (each receiver polls its own counter against the schedule's expected
// count), which the conservative parallel engine requires.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "trace/metrics.hpp"
#include "workload/traffic.hpp"

namespace fmx::workload {

enum class TrafficPattern : std::uint8_t {
  kUniform = 0,      // each flow picks a uniform-random peer
  kPermutation = 1,  // host i sends every flow to p[i] (seeded derangement)
  kIncast = 2,       // groups of `incast_fan_in`; members target the group
                     // head, which sends nothing (the oversubscription
                     // stress case: fan_in senders share one downlink)
  kHotspot = 3,      // `hotspot_targets` hot hosts strided across the
                     // cluster absorb `hotspot_fraction` of all flows
};

const char* to_string(TrafficPattern p) noexcept;

struct TrafficConfig {
  TrafficPattern pattern = TrafficPattern::kUniform;
  SizeDistribution sizes = SizeDistribution::fixed(256);
  /// Flow arrivals per second per sending host (open-loop Poisson).
  double flow_rate_per_host = 1e6;
  /// Flows each sending host originates.
  int flows_per_host = 64;
  std::uint64_t seed = 1;
  int incast_fan_in = 16;
  int hotspot_targets = 4;
  double hotspot_fraction = 0.5;
};

/// One scheduled flow: 16 bytes. Arrival is relative to the wave start.
struct Flow {
  std::uint32_t dst = 0;
  std::uint32_t size = 0;
  sim::Ps arrival = 0;
};
static_assert(sizeof(Flow) == 16, "per-flow schedule state must stay 16 B");

struct Schedule {
  std::vector<std::vector<Flow>> per_host;     // [src] -> its flows
  std::vector<std::uint64_t> flow_id_base;     // [src] -> first global id
  std::vector<std::uint32_t> expected_per_node;  // [dst] -> flow count
  std::uint64_t total_flows = 0;
  std::size_t max_flow_bytes = 0;
  sim::Ps horizon = 0;  // last scheduled arrival
};

/// Deterministic per (config, n_hosts): host h's flows come from
/// Rng(seed ^ h)-derived streams, so the schedule is independent of
/// topology, shard count, and generation order.
Schedule make_schedule(const TrafficConfig& cfg, int n_hosts);

/// Per-layer latency quantiles (all picoseconds), merged across shards.
struct LayerQuantiles {
  const char* layer = "";
  std::uint64_t count = 0;
  double p50 = 0, p99 = 0, p999 = 0;
};

struct WaveResult {
  std::uint64_t events = 0;          // engine events in the wave
  std::uint64_t completed = 0;       // flows fully received
  std::uint64_t digest = 0;          // FNV over per-flow completion times
  sim::Ps makespan = 0;              // wave start -> last completion
  /// Max number of flows simultaneously in flight (scheduled arrival to
  /// handler completion overlap), computed post-run from timestamps.
  std::uint64_t peak_concurrent = 0;
  std::vector<LayerQuantiles> layers;  // src_queue/transit/deliver/handler/e2e
  int pending_roots = 0;
};

/// Binds endpoints + handlers to a ParallelCluster and replays schedules.
/// Reusable across waves: run_wave() resets per-flow state and histograms,
/// so a warmup wave (pool/ring/frame warm-up) followed by a measured wave
/// is the intended usage.
class TrafficEngine {
 public:
  /// `cluster` must outlive the engine. Registers handler id 0 on every
  /// node's endpoint.
  explicit TrafficEngine(net::ParallelCluster& cluster);
  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;
  ~TrafficEngine();

  /// Replay `s` to quiescence on `n_threads` workers. Results (digest,
  /// makespan, quantiles) are bit-identical for every thread count.
  WaveResult run_wave(const Schedule& s, int n_threads = 1);

  /// Split form for benches that meter the spawn+run phase (e.g. alloc
  /// counting): spawn_wave() resets per-flow state and spawns all roots,
  /// the caller runs the cluster, collect_wave() folds the results. The
  /// spawn/run phase is steady-state allocation-free once a warmup wave of
  /// the same schedule has sized every pool; collect_wave() may allocate.
  void spawn_wave(const Schedule& s);
  WaveResult collect_wave(const Schedule& s,
                          const net::ParallelCluster::RunResult& run);

  fm2::Endpoint& endpoint(int node) { return *eps_[node]; }

 private:
  struct NodeState;
  /// One shard's latency histograms, in WaveResult::layers order.
  using LayerHists = std::array<trace::Histogram, 5>;
  sim::Task<void> sender(int src, const Schedule& s, sim::Ps base);
  sim::Task<void> receiver(int dst, std::uint32_t expect);
  void reset_for(const Schedule& s);

  sim::Ps wave_base_ = 0;  // set by spawn_wave, read by collect_wave

  net::ParallelCluster& cl_;
  std::vector<std::unique_ptr<fm2::Endpoint>> eps_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  // [shard]: handlers on a shard's nodes bump them lock-free, and
  // collect_wave() merges across shards.
  std::vector<LayerHists> hists_;
  // Completion + scheduled-arrival timestamps per global flow id. Written
  // once per flow (handler side / sender side respectively); entries are
  // distinct objects, so cross-shard writers never touch the same one.
  std::vector<sim::Ps> done_at_;
  std::vector<sim::Ps> sched_at_;
  std::vector<Bytes> send_buf_;  // [src] persistent payload buffer
};

}  // namespace fmx::workload
