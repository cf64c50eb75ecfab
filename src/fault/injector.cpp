#include "fault/injector.hpp"

namespace fmx::fault {

const WireRates& PlanInjector::rates_for(int src, int dst) const {
  for (const LinkOverride& o : plan_.links) {
    if ((o.src == -1 || o.src == src) && (o.dst == -1 || o.dst == dst)) {
      return o.rates;
    }
  }
  return plan_.wire;
}

net::WireFault PlanInjector::on_deliver(const net::WirePacket& pkt) {
  ++stats_.packets_seen;
  const WireRates& r = rates_for(pkt.src, pkt.dst);
  net::WireFault f;
  if (!r.any()) return f;
  if (r.reorder > 0 && rng_.bernoulli(r.reorder)) {
    ++stats_.reorders;
    f.extra_delay = r.reorder_delay;
  }
  if (r.corrupt > 0 && !pkt.payload.empty() && rng_.bernoulli(r.corrupt)) {
    ++stats_.corruptions;
    f.corrupt = true;
    f.corrupt_pos = static_cast<std::uint32_t>(
        rng_.uniform(0, pkt.payload.size() - 1));
    f.corrupt_bit = static_cast<std::uint8_t>(rng_.uniform(0, 7));
  }
  if (r.drop > 0 && rng_.bernoulli(r.drop)) {
    ++stats_.drops;
    f.drop = true;
    return f;  // a dropped packet cannot also be duplicated
  }
  if (r.duplicate > 0 && rng_.bernoulli(r.duplicate)) {
    ++stats_.duplicates;
    f.duplicate = true;
  }
  return f;
}

sim::Ps PlanInjector::bus_stall(std::size_t /*bytes*/) {
  const BusStallPlan& b = plan_.bus;
  if (!b.any()) return 0;
  if (eng_.now() % b.period >= b.window) return 0;
  ++stats_.bus_stalls;
  return b.extra;
}

sim::Ps PlanInjector::jittered(sim::Ps fixed, sim::Ps jitter) {
  if (jitter == 0) return fixed;
  return fixed + rng_.uniform(0, jitter);
}

sim::Ps PlanInjector::tx_pacing(int /*nic_id*/) {
  const PacingPlan& p = plan_.pacing;
  if (p.tx == 0 && p.tx_jitter == 0) return 0;
  return jittered(p.tx, p.tx_jitter);
}

sim::Ps PlanInjector::rx_pacing(int /*nic_id*/) {
  const PacingPlan& p = plan_.pacing;
  if (p.rx == 0 && p.rx_jitter == 0) return 0;
  return jittered(p.rx, p.rx_jitter);
}

std::vector<std::unique_ptr<PlanInjector>> arm(net::ParallelCluster& cluster,
                                               const FaultPlan& plan) {
  std::vector<std::unique_ptr<PlanInjector>> out;
  out.reserve(cluster.n_shards());
  for (int s = 0; s < cluster.n_shards(); ++s) {
    FaultPlan shard_plan = plan;
    // Golden-ratio mix keeps per-shard streams decorrelated while staying a
    // pure function of (plan seed, shard index); shard 0 keeps the seed.
    shard_plan.seed =
        plan.seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(s));
    out.push_back(std::make_unique<PlanInjector>(cluster.shard_engine(s),
                                                 std::move(shard_plan)));
    cluster.shard_fabric(s).set_fault(out.back().get());
  }
  for (int i = 0; i < cluster.size(); ++i) {
    PlanInjector* inj = out[cluster.shard_of(i)].get();
    cluster.node(i).nic().set_fault(inj);
    cluster.node(i).bus().set_fault(inj);
  }
  return out;
}

void disarm(net::ParallelCluster& cluster) {
  for (int s = 0; s < cluster.n_shards(); ++s) {
    cluster.shard_fabric(s).set_fault(nullptr);
  }
  for (int i = 0; i < cluster.size(); ++i) {
    cluster.node(i).nic().set_fault(nullptr);
    cluster.node(i).bus().set_fault(nullptr);
  }
}

}  // namespace fmx::fault
