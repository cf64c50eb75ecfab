// Deterministic FaultPlan interpreter. One PlanInjector is shared by every
// fault seam of a shard (fabric-replica delivery, NIC pacing, per-node I/O
// buses); because each shard's event engine is single-threaded and
// deterministic, the injector's RNG draws happen in a reproducible order,
// so (plan, seed, shard count, workload) fully determines every injected
// fault.
#pragma once

#include <cstdint>

#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "myrinet/fault_hooks.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace fmx::fault {

class PlanInjector final : public net::FaultInjector {
 public:
  PlanInjector(sim::Engine& eng, FaultPlan plan)
      : eng_(eng), plan_(std::move(plan)), rng_(plan_.seed) {}

  net::WireFault on_deliver(const net::WirePacket& pkt) override;
  sim::Ps bus_stall(std::size_t bytes) override;
  sim::Ps tx_pacing(int nic_id) override;
  sim::Ps rx_pacing(int nic_id) override;

  struct Stats {
    std::uint64_t packets_seen = 0;
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t reorders = 0;
    std::uint64_t bus_stalls = 0;
    /// Total injected faults of every kind.
    std::uint64_t injected() const noexcept {
      return drops + duplicates + corruptions + reorders + bus_stalls;
    }
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  const WireRates& rates_for(int src, int dst) const;
  sim::Ps jittered(sim::Ps fixed, sim::Ps jitter);

  sim::Engine& eng_;
  FaultPlan plan_;
  sim::Rng rng_;
  Stats stats_;
};

/// Wire one injector per shard through every fault seam of a cluster: the
/// shard's fabric replica, each NIC's control programs, and each node's
/// I/O bus, so every RNG draw stays shard-local. Shard s draws from the
/// plan seed mixed with s (shard 0 draws the plan seed itself, so a 1-shard
/// cluster replays the plan's own fault sequence), and shard assignment is
/// fixed per cluster, so the fault sequence is deterministic and
/// independent of thread count. The returned injectors must outlive the
/// traffic; call disarm() to detach them.
std::vector<std::unique_ptr<PlanInjector>> arm(net::ParallelCluster& cluster,
                                               const FaultPlan& plan);
void disarm(net::ParallelCluster& cluster);

}  // namespace fmx::fault
