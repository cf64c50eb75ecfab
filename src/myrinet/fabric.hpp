// Myrinet-style switch fabric: source-routed, cut-through, no buffering in
// the network, link-level back-pressure. The switch geometry — chained
// crossbars or a k-ary fat-tree/Clos with ECMP multipath — lives in
// myrinet/topo.hpp; the Fabric holds one FIFO serial resource per directed
// link id and asks the topology for each hop's link id at transmit time
// (O(1) per hop, no shared scratch path). It keeps link state only:
// wire faults come through the FaultInjector seam.
//
// Modeling approach: each directed link is a FIFO serial resource. A packet
// reserves the links on its path in one cut-through walk: on link i it may
// start no earlier than its head could have arrived from link i-1 (cut-
// through pipelining), and no earlier than the link is free (contention).
// Back-pressure is a slack-token semaphore per destination NIC: a packet
// cannot leave the fabric until the receiving NIC has inbound SRAM to hold
// it — the discrete-event equivalent of Myrinet's STOP/GO link flow control.
//
// A Fabric is one shard's replica (myrinet/parallel_cluster.hpp). A packet
// to a node of its own shard waits for slack, then walks its whole path; a
// packet to another shard's node walks every link but the downlink and is
// posted to that shard's replica, which walks the downlink and waits for
// slack there.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/buffer_pool.hpp"
#include "myrinet/fault_hooks.hpp"
#include "myrinet/packet.hpp"
#include "myrinet/params.hpp"
#include "myrinet/topo.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "trace/trace.hpp"

namespace fmx::sim {
class ParallelEngine;
}

namespace fmx::net {

class Fabric {
 public:
  /// Shard `shard`'s replica, running on `par.shard(shard)`.
  /// `shard_of_node` maps node id -> owning shard (must outlive the
  /// fabric); packets to another shard's nodes are posted to `par`.
  /// `parked_hint` pre-sizes the remote-arrival parking lot: the cluster
  /// passes its per-shard drain peak so a deep mailbox batch never grows
  /// the vector mid-measurement.
  Fabric(sim::ParallelEngine& par, int shard,
         const std::int32_t* shard_of_node, const FabricParams& p,
         int n_hosts, std::size_t parked_hint);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// NIC registration: its inbound wire buffer and slack-token pool.
  void attach(int host, sim::Channel<WirePacket>* wire_in,
              sim::Semaphore* slack);

  /// Inject a packet. Returns when the sender's uplink is released (i.e.
  /// serialization done and the NIC may handle the next packet); delivery
  /// into the destination's wire buffer continues in the background.
  sim::Task<void> transmit(WirePacket pkt);

  /// Bytes a payload occupies on the wire (framing + route + CRC).
  std::size_t wire_bytes(std::size_t payload) const;
  /// Number of switch hops between two hosts (equal on every ECMP path).
  int hops(int src, int dst) const { return topo_.hops(src, dst); }
  /// Zero-load one-way wire latency for a payload of the given size.
  sim::Ps zero_load_latency(int src, int dst, std::size_t payload) const;
  /// Routing geometry (hop counts, ECMP path enumeration, link levels).
  const Topo& topo() const noexcept { return topo_; }

  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t corrupted = 0;
    // injected-fault counters (nonzero only with a FaultInjector armed)
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
  };
  const Stats& stats() const noexcept { return stats_; }
  const FabricParams& params() const noexcept { return p_; }
  int n_hosts() const noexcept { return n_hosts_; }

  /// Arm (or disarm, with nullptr) a fault injector. The injector must
  /// outlive all traffic; it is consulted at every packet's delivery point.
  void set_fault(FaultInjector* f) noexcept { fault_ = f; }

  /// Shared packet-buffer pool for everything attached to this replica
  /// (NICs and the messaging layers above them): a buffer freed by a
  /// receiver is immediately reusable by any sender on the shard.
  BufferPool& pool() noexcept { return pool_; }

  /// The shard's tracer. Disabled by default (a single branch per hook);
  /// every layer attached to this replica records through it.
  trace::Tracer& tracer() noexcept { return tracer_; }
  const trace::Tracer& tracer() const noexcept { return tracer_; }

  // --- Cross-shard traffic ------------------------------------------------
  /// Minimum simulated time any packet needs to cross between shards: every
  /// cross-shard path starts with the source's uplink, whose propagation is
  /// link latency + the first switch's routing decision. This is the
  /// conservative lookahead that bounds the parallel window width.
  static sim::Ps cross_lookahead(const FabricParams& p) noexcept {
    return p.link_latency + p.switch_latency;
  }

  /// Next-free time of `host`'s uplink serializer. Every packet a host
  /// sends — cross-shard or not — must first serialize through this link,
  /// and SerialResource reservations are monotone, so in parallel runs the
  /// cluster's sharpened emission bound (ParallelCluster::emission_bound)
  /// reads it as a dynamic lower bound on future cross-shard traffic: while
  /// a host streams, its uplink is reserved microseconds ahead, which is
  /// what lets peer shards run far past the static one-hop lookahead.
  sim::Ps uplink_free(int host) const noexcept {
    return links_[topo_.uplink(host)]->ser.next_free();
  }

  /// Entry point for a packet a peer shard's replica posted: decodes the
  /// mailbox body and schedules its delivery (downlink reservation,
  /// destination SRAM back-pressure, fault hooks) at head_arrival with the
  /// deterministic cross-shard key.
  void accept_remote(sim::Ps head_arrival, std::uint64_t cross_key,
                     ByteSpan body);

 private:
  struct Link {
    explicit Link(sim::Engine& eng, sim::Ps lat) : ser(eng), latency(lat) {}
    sim::SerialResource ser;
    sim::Ps latency;
  };
  struct Endpoint {
    sim::Channel<WirePacket>* wire_in = nullptr;
    sim::Semaphore* slack = nullptr;
  };

  sim::Task<void> deliver(WirePacket pkt, sim::Ps at);
  sim::Task<void> deliver_body(WirePacket pkt);
  sim::Task<void> deliver_remote(WirePacket pkt, sim::Ps head);
  sim::Task<void> deliver_duplicate(WirePacket pkt);
  void launch_remote(std::uint32_t idx);
  struct Walk {
    sim::Ps head;        ///< head time past the last link (tail: + ser)
    sim::Ps first_done;  ///< when the first link finishes serializing
  };
  /// Cut-through reservation of links [first, last) of pkt's path, the
  /// head reaching link `first` at `head`: on each link the packet starts
  /// when its head arrives and the link is free, and the head moves on
  /// after the link's latency.
  Walk walk(const WirePacket& pkt, int first, int last, sim::Ps head,
            sim::Ps ser);
  sim::Ps ser_time(const WirePacket& pkt) const noexcept {
    std::size_t b = wire_bytes(pkt.payload.size());
    // Remote-write packets carry the rkey/offset header on the real wire.
    if (pkt.kind == PacketKind::kRdmaWrite) b += p_.rdma_hdr_bytes;
    return static_cast<sim::Ps>(p_.link_ps_per_byte *
                                static_cast<double>(b));
  }

  sim::Engine& eng_;
  FabricParams p_;
  int n_hosts_;
  Topo topo_;
  std::vector<std::unique_ptr<Link>> links_;  // indexed by Topo link id
  std::vector<Endpoint> endpoints_;
  BufferPool pool_{p_.pool_retain_bytes_per_class};
  FaultInjector* fault_ = nullptr;
  trace::Tracer tracer_{eng_};
  Stats stats_;

  // Cross-shard state.
  struct Parked {
    WirePacket pkt;
    sim::Ps head = 0;
  };
  sim::ParallelEngine& par_;
  const std::int32_t* shard_of_node_;
  int my_shard_;
  std::uint64_t cross_ctr_ = 0;  // cross-shard keys issued by this shard
  std::vector<Parked> parked_;  // remote arrivals awaiting their event
  std::vector<std::uint32_t> free_parked_;
};

}  // namespace fmx::net
