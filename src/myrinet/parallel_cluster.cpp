#include "myrinet/parallel_cluster.hpp"

#include <algorithm>
#include <limits>

namespace fmx::net {
namespace {

constexpr sim::Ps kNever = std::numeric_limits<sim::Ps>::max();

// Contiguous node ranges per shard (aligns with switch locality).
std::vector<std::int32_t> make_shard_of(int n_hosts, int k) {
  std::vector<std::int32_t> out(n_hosts);
  for (int i = 0; i < n_hosts; ++i) {
    out[i] = static_cast<std::int32_t>(
        static_cast<std::int64_t>(i) * k / n_hosts);
  }
  return out;
}

// Source-side head latency from each host to each foreign shard: the
// minimum over hosts b of shard d of one (link + switch) per switch hop on
// the path a -> b — the same per-link terms Fabric::transmit reserves,
// with serialization and contention stripped. Every ECMP path of a
// fat-tree pair has the same hop count, so hops() is an exact (not just
// conservative) distance. Own-shard entries stay kNever.
std::vector<sim::Ps> make_sl_host(const ClusterParams& p,
                                  const std::vector<std::int32_t>& shard_of,
                                  int k) {
  const Topo topo(p.fabric, p.n_hosts);
  const sim::Ps unit = p.fabric.link_latency + p.fabric.switch_latency;
  std::vector<sim::Ps> sl(static_cast<std::size_t>(p.n_hosts) * k, kNever);
  for (int a = 0; a < p.n_hosts; ++a) {
    for (int b = 0; b < p.n_hosts; ++b) {
      if (shard_of[b] == shard_of[a]) continue;
      const sim::Ps v = static_cast<sim::Ps>(topo.hops(a, b)) * unit;
      sim::Ps& cell = sl[static_cast<std::size_t>(a) * k + shard_of[b]];
      if (v < cell) cell = v;
    }
  }
  return sl;
}

// Per-pair lookahead: the minimum source-side head latency from any host
// of `src` to any host of `dst`. Adjacent chain shards get the classic
// one-hop 850 ns; cross-pod fat-tree shards synchronize 5x less often.
std::vector<sim::Ps> shard_lookahead(const std::vector<sim::Ps>& sl_host,
                                     const std::vector<std::int32_t>& shard_of,
                                     int k) {
  std::vector<sim::Ps> la(static_cast<std::size_t>(k) * k, kNever);
  for (std::size_t a = 0; a < shard_of.size(); ++a) {
    sim::Ps* row = &la[static_cast<std::size_t>(shard_of[a]) * k];
    for (int d = 0; d < k; ++d) row[d] = std::min(row[d], sl_host[a * k + d]);
  }
  return la;
}

}  // namespace

ParallelCluster::ParallelCluster(const ClusterParams& p, int n_shards)
    : params_(p),
      n_shards_(n_shards <= 0 || n_shards > p.n_hosts ? p.n_hosts : n_shards),
      shard_of_(make_shard_of(p.n_hosts, n_shards_)),
      sl_host_(make_sl_host(p, shard_of_, n_shards_)),
      par_(n_shards_, shard_lookahead(sl_host_, shard_of_, n_shards_),
           {.deliver =
                [this](int dst, sim::Ps head, std::uint64_t key,
                       ByteSpan body) {
                  fabrics_[dst]->accept_remote(head, key, body);
                },
            .emission_bound =
                [this](int s, sim::Ps e, sim::Ps* out) {
                  emission_bound(s, e, out);
                },
            // Minimum reaction time of a shard to an inbound packet: every
            // causal response flows through Nic::rx_wire_program, which
            // charges per_packet_rx before anything downstream can observe
            // the packet. In clean mode the response emission additionally
            // pays a fresh tx_inject per_packet_tx; with reliable links an
            // arriving ack can release a window-blocked sender in the same
            // timestamp as its rx processing, so only the rx term is safe
            // there.
            .reaction_gap =
                p.nic.per_packet_rx +
                (p.nic.reliable_link ? sim::Ps{0} : p.nic.per_packet_tx)}) {
  // Host range [shard_begin_[s], shard_begin_[s+1]) owned by shard s.
  shard_begin_.assign(n_shards_ + 1, p.n_hosts);
  for (int i = p.n_hosts - 1; i >= 0; --i) shard_begin_[shard_of_[i]] = i;

  // Pre-size each shard's event heap for the deepest mailbox drain the
  // engine's mailboxes are themselves pre-sized for: every inbound peer
  // can deliver a full ring plus the pre-warmed spill allowance (4x
  // slots) in one batch, and each drained message becomes one scheduled
  // event. How full the mailboxes actually get depends on wall-clock
  // thread skew, so growing on demand would allocate at an unpredictable
  // point mid-measurement.
  const std::size_t drain_peak =
      4096 + static_cast<std::size_t>(n_shards_ - 1) * 5 *
                 sim::ParallelEngine::kMailboxSlots;

  fabrics_.reserve(n_shards_);
  for (int s = 0; s < n_shards_; ++s) {
    par_.shard(s).reserve_events(drain_peak);
    fabrics_.push_back(std::make_unique<Fabric>(
        par_, s, shard_of_.data(), p.fabric, p.n_hosts, drain_peak));
  }

  nodes_.reserve(p.n_hosts);
  for (int i = 0; i < p.n_hosts; ++i) {
    const int s = shard_of_[i];
    nodes_.push_back(
        std::make_unique<Node>(par_.shard(s), i, p, *fabrics_[s]));
  }

  // Pre-warm every shard's buffer pool across the packet size classes.
  // Under batched quanta the peak number of simultaneously live blocks
  // depends on cross-shard thread timing, so a warmup wave cannot
  // deterministically reach the high-water mark; parking the structural
  // worst case (up to the pool's retention limit) keeps the steady-state
  // data path off the allocator at any interleaving. A 1-shard cluster
  // has no cross-shard timing: its warm-up wave reaches the high water,
  // so it skips this.
  const int prewarm_shards = n_shards_ > 1 ? n_shards_ : 0;
  for (int s = 0; s < prewarm_shards; ++s) {
    const int hosts = shard_begin_[s + 1] - shard_begin_[s];
    const auto per_class = static_cast<std::size_t>(128 * (hosts + 1));
    for (std::size_t sz = 64; sz / 2 < sim::ParallelEngine::kMailboxSlotBytes;
         sz *= 2) {
      fabrics_[s]->pool().prewarm(sz, per_class);
    }
  }
}

// Lower bound on the head-arrival time of any cross-shard packet this
// shard can still emit, per destination shard, given that no local event
// runs before `e`. Two dynamic terms sharpen the static latency:
//
//   - The source host's uplink next-free time: every emission serializes
//     through Fabric::transmit, and SerialResource reservations are
//     monotone. While a host streams, its uplink sits reserved several
//     microseconds ahead of the clock.
//   - The NIC wire floor: the NIC is the only transmit caller, and a
//     fresh injection trails the event that triggers it by at least the
//     per-packet tx overhead (or the ack/timeout windows in reliable
//     mode) — Nic::wire_floor tracks the armed mid-pipeline states where
//     that gap has already partly elapsed. This is what keeps quanta
//     wider than the static 850 ns even when senders sit credit-blocked
//     with idle uplinks.
//
// max of the two, plus the static path latency, per source host; min over
// the shard's hosts per destination. Every host's term is at least e plus
// the engine's lookahead, so the result only ever raises the static bound
// out[] arrives with.
void ParallelCluster::emission_bound(int shard, sim::Ps e,
                                     sim::Ps* out) const {
  for (int d = 0; d < n_shards_; ++d) out[d] = kNever;
  const Fabric& f = *fabrics_[shard];
  for (int a = shard_begin_[shard]; a < shard_begin_[shard + 1]; ++a) {
    const sim::Ps base =
        std::max(f.uplink_free(a), nodes_[a]->nic().wire_floor(e));
    const sim::Ps* sl = &sl_host_[static_cast<std::size_t>(a) * n_shards_];
    for (int d = 0; d < n_shards_; ++d) {
      if (sl[d] == kNever) continue;  // own shard
      const sim::Ps v = base > kNever - sl[d] ? kNever : base + sl[d];
      if (v < out[d]) out[d] = v;
    }
  }
}

void ParallelCluster::enable_tracing(std::size_t capacity_events) {
  for (auto& f : fabrics_) f->tracer().enable(capacity_events);
}

std::vector<trace::Event> ParallelCluster::merged_trace() const {
  std::vector<std::vector<trace::Event>> streams;
  streams.reserve(fabrics_.size());
  for (const auto& f : fabrics_) streams.push_back(f->tracer().events());
  return trace::merge_streams(streams);
}

Fabric::Stats ParallelCluster::fabric_stats() const {
  Fabric::Stats out;
  for (const auto& f : fabrics_) {
    const Fabric::Stats& s = f->stats();
    out.packets += s.packets;
    out.payload_bytes += s.payload_bytes;
    out.corrupted += s.corrupted;
    out.dropped += s.dropped;
    out.duplicated += s.duplicated;
  }
  return out;
}

}  // namespace fmx::net
