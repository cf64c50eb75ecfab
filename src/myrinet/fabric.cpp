#include "myrinet/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "common/copy_stats.hpp"
#include "sim/parallel.hpp"

namespace fmx::net {
namespace {

// Mailbox body of one cross-shard packet: this header, then the payload
// bytes. The engine's mailbox framing carries the head-arrival time and
// the order key, and the payload length is the rest of the body; `ser` is
// recomputed from it at the destination.
struct CrossMsg {
  std::uint64_t trace_id;
  std::uint32_t crc;
  std::uint32_t link_seq;
  std::uint32_t ack;
  std::int32_t src;
  std::int32_t dst;
  std::uint32_t rkey;
  std::uint32_t rdma_offset;
  std::uint32_t flow;  // ECMP flow label (packet.hpp)
  std::uint8_t has_ack;
  std::uint8_t ack_only;
  std::uint8_t kind;  // PacketKind
  std::uint8_t pad[5];
};
static_assert(std::is_trivially_copyable_v<CrossMsg>);
// Copied into a mailbox slot ahead of every cross-shard payload.
static_assert(sizeof(CrossMsg) == 48);

void encode(std::byte* out, const WirePacket& pkt) {
  CrossMsg m{};
  m.trace_id = pkt.trace_id;
  m.crc = pkt.crc;
  m.link_seq = pkt.link_seq;
  m.ack = pkt.ack;
  m.src = pkt.src;
  m.dst = pkt.dst;
  m.has_ack = pkt.has_ack ? 1 : 0;
  m.ack_only = pkt.ack_only ? 1 : 0;
  m.kind = static_cast<std::uint8_t>(pkt.kind);
  m.rkey = pkt.rkey;
  m.rdma_offset = pkt.rdma_offset;
  m.flow = pkt.flow;
  std::memcpy(out, &m, sizeof(m));
  if (!pkt.payload.empty()) {
    std::memcpy(out + sizeof(m), pkt.payload.data(), pkt.payload.size());
    count_hop_copy(pkt.payload.size());
  }
}

WirePacket decode(ByteSpan body, BufferPool& pool) {
  CrossMsg m;
  std::memcpy(&m, body.data(), sizeof(m));
  WirePacket pkt;
  pkt.src = m.src;
  pkt.dst = m.dst;
  pkt.trace_id = m.trace_id;
  pkt.crc = m.crc;
  pkt.link_seq = m.link_seq;
  pkt.ack = m.ack;
  pkt.has_ack = m.has_ack != 0;
  pkt.ack_only = m.ack_only != 0;
  pkt.kind = static_cast<PacketKind>(m.kind);
  pkt.rkey = m.rkey;
  pkt.rdma_offset = m.rdma_offset;
  pkt.flow = m.flow;
  const std::size_t len = body.size() - sizeof(m);
  pkt.payload = pool.acquire_ref(len);
  if (len != 0) {
    std::memcpy(pkt.payload.mutable_bytes().data(), body.data() + sizeof(m),
                len);
    count_hop_copy(len);
  }
  return pkt;
}

}  // namespace

Fabric::Fabric(sim::ParallelEngine& par, int shard,
               const std::int32_t* shard_of_node, const FabricParams& p,
               int n_hosts, std::size_t parked_hint)
    : eng_(par.shard(shard)),
      p_(p),
      n_hosts_(n_hosts),
      topo_(p, n_hosts),
      par_(par),
      shard_of_node_(shard_of_node),
      my_shard_(shard) {
  assert(n_hosts >= 1);
  // One serial resource per directed link id. Uplinks and transit links
  // cost flight plus the routing decision at the switch they enter; the
  // final downlink is pure flight (the decision was paid on entry).
  links_.reserve(static_cast<std::size_t>(topo_.n_links()));
  for (int l = 0; l < topo_.n_links(); ++l) {
    const sim::Ps lat = topo_.is_downlink(l)
                            ? p_.link_latency
                            : p_.link_latency + p_.switch_latency;
    links_.push_back(std::make_unique<Link>(eng_, lat));
  }
  endpoints_.resize(n_hosts);
  // Park slots recycle through free_parked_, so the vector only grows to
  // the peak number of remote arrivals simultaneously awaiting delivery.
  // Pay that growth here rather than mid-run: a deep-credit streaming pair
  // can push the peak past whatever a short warmup happened to reach.
  parked_.reserve(parked_hint);
  free_parked_.reserve(parked_hint);
}

void Fabric::attach(int host, sim::Channel<WirePacket>* wire_in,
                    sim::Semaphore* slack) {
  endpoints_[host].wire_in = wire_in;
  endpoints_[host].slack = slack;
}

std::size_t Fabric::wire_bytes(std::size_t payload) const {
  return p_.frame_overhead + payload + p_.crc_bytes;
}

sim::Ps Fabric::zero_load_latency(int src, int dst,
                                  std::size_t payload) const {
  sim::Ps ser = static_cast<sim::Ps>(
      p_.link_ps_per_byte * static_cast<double>(wire_bytes(payload)));
  if (src == dst) return p_.switch_latency + ser;
  // Sum of per-link propagation on the path; every ECMP path of a pair has
  // the same hop mix, so flow 0 is representative.
  sim::Ps lat = 0;
  const int len = topo_.path_len(src, dst);
  for (int i = 0; i < len; ++i) {
    lat += links_[topo_.link_at(src, dst, 0, i)]->latency;
  }
  return lat + ser;  // cut-through: one serialization end to end
}

Fabric::Walk Fabric::walk(const WirePacket& pkt, int first, int last,
                          sim::Ps head, sim::Ps ser) {
  // Link ids are closed-form topology arithmetic — O(1) per hop, no
  // shared path buffer, so interleaved walks can never alias.
  Walk w{head, head};
  for (int i = first; i < last; ++i) {
    Link* l = links_[topo_.link_at(pkt.src, pkt.dst, pkt.flow, i)].get();
    const sim::Ps tail_done = l->ser.reserve_from(w.head, ser);
    w.head = (tail_done - ser) + l->latency;
    if (i == first) w.first_done = tail_done;
  }
  return w;
}

sim::Task<void> Fabric::deliver(WirePacket pkt, sim::Ps at) {
  co_await eng_.sleep_until(at);
  co_await deliver_body(std::move(pkt));
}

// Everything that happens once the packet's tail reaches the destination:
// fault hooks, tracing, and the hand-off into the NIC's wire buffer. Shared
// by the same-shard path (deliver) and the cross-shard path
// (deliver_remote) so fault semantics are identical in both.
sim::Task<void> Fabric::deliver_body(WirePacket pkt) {
  if (fault_ != nullptr) {
    WireFault f = fault_->on_deliver(pkt);
    if (f.extra_delay > 0) {
      // Held back relative to packets behind it: observable reordering.
      co_await eng_.delay(f.extra_delay);
    }
    if (f.corrupt && !pkt.payload.empty()) {
      // Copy-on-write: if the block is shared (NIC retention, a duplicate
      // in flight), only this packet's view diverges.
      pkt.payload.mutable_bytes()[f.corrupt_pos % pkt.payload.size()] ^=
          static_cast<std::byte>(1u << (f.corrupt_bit & 7));
      ++stats_.corrupted;
    }
    if (f.drop) {
      // The packet evaporates; give its reserved SRAM slot back so slack
      // accounting stays conserved (the loss is the sender's problem).
      ++stats_.dropped;
      tracer_.record(trace::EventType::kDrop, trace::Layer::kFabric, pkt.dst,
                     pkt.trace_id, trace::kDropFault);
      pkt.payload.reset();
      endpoints_[pkt.dst].slack->release();
      co_return;
    }
    if (f.duplicate) {
      ++stats_.duplicated;
      WirePacket copy = pkt;  // a pure reference share
      auto& ep = endpoints_[pkt.dst];
      assert(ep.wire_in && "destination NIC not attached");
      tracer_.record(trace::EventType::kDeliver, trace::Layer::kFabric,
                     pkt.dst, pkt.trace_id, pkt.payload.size());
      co_await ep.wire_in->push(std::move(pkt));
      eng_.spawn_daemon(deliver_duplicate(std::move(copy)));
      co_return;
    }
  }
  auto& ep = endpoints_[pkt.dst];
  assert(ep.wire_in && "destination NIC not attached");
  tracer_.record(trace::EventType::kDeliver, trace::Layer::kFabric, pkt.dst,
                 pkt.trace_id, pkt.payload.size());
  co_await ep.wire_in->push(std::move(pkt));
}

// A duplicated copy is a real extra packet: it must win its own SRAM slot
// at the destination before entering the wire buffer.
sim::Task<void> Fabric::deliver_duplicate(WirePacket pkt) {
  auto& ep = endpoints_[pkt.dst];
  co_await ep.slack->acquire();
  tracer_.record(trace::EventType::kDeliver, trace::Layer::kFabric, pkt.dst,
                 pkt.trace_id, pkt.payload.size());
  co_await ep.wire_in->push(std::move(pkt));
}

sim::Task<void> Fabric::transmit(WirePacket pkt) {
  assert(pkt.src >= 0 && pkt.src < n_hosts_);
  assert(pkt.dst >= 0 && pkt.dst < n_hosts_);

  ++stats_.packets;
  stats_.payload_bytes += pkt.payload.size();

  // Back-pressure for a destination on this shard: no injection until its
  // NIC has SRAM for the packet. A peer shard's destination exerts it at
  // the last hop instead (deliver_remote), where the receiving NIC's
  // STOP/GO signal physically lives.
  const int dst_shard = shard_of_node_[pkt.dst];
  const bool local = dst_shard == my_shard_;
  if (local) {
    assert(endpoints_[pkt.dst].slack && "destination NIC not attached");
    co_await endpoints_[pkt.dst].slack->acquire();
  }

  tracer_.record(trace::EventType::kWireHop, trace::Layer::kFabric, pkt.src,
                 pkt.trace_id,
                 static_cast<std::uint64_t>(hops(pkt.src, pkt.dst)));

  if (pkt.src == pkt.dst) {
    eng_.spawn_daemon(deliver(std::move(pkt), eng_.now() + p_.switch_latency));
    co_return;
  }

  // Reserve every link this replica arbitrates: the whole path, or all but
  // the destination's downlink, which the destination's replica owns.
  const sim::Ps ser = ser_time(pkt);
  const int len = topo_.path_len(pkt.src, pkt.dst);
  const Walk w = walk(pkt, 0, local ? len : len - 1, eng_.now(), ser);
  if (local) {
    eng_.spawn_daemon(deliver(std::move(pkt), w.head + ser));
  } else {
    // Post the packet with its head-arrival time. 60-bit keys: node id (16
    // bits) above a 44-bit per-shard counter, assigned in shard-local
    // program order, so the key sequence is independent of thread count.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(pkt.src) << 44) | cross_ctr_++;
    assert((cross_ctr_ >> 44) == 0 && "cross counter overflow");
    par_.post(my_shard_, dst_shard, w.head, key,
              sizeof(CrossMsg) + pkt.payload.size(),
              [&pkt](std::byte* out) { encode(out, pkt); });
    pkt.payload.reset();
  }
  // The sender NIC is occupied until its uplink finishes serializing.
  co_await eng_.sleep_until(w.first_done);
}

// ---------------------------------------------------------------------------
// Cross-shard arrivals

void Fabric::accept_remote(sim::Ps head_arrival, std::uint64_t cross_key,
                           ByteSpan body) {
  WirePacket pkt = decode(body, pool_);
  // Park the packet and schedule a 16-byte callback: the cross-band key
  // alone decides where this arrival sorts among same-timestamp events, so
  // the drain order (and thread count) cannot affect the simulation.
  std::uint32_t idx;
  if (!free_parked_.empty()) {
    idx = free_parked_.back();
    free_parked_.pop_back();
    parked_[idx].pkt = std::move(pkt);
    parked_[idx].head = head_arrival;
  } else {
    idx = static_cast<std::uint32_t>(parked_.size());
    parked_.push_back(Parked{std::move(pkt), head_arrival});
  }
  eng_.schedule_cross(head_arrival, cross_key,
                      [this, idx] { launch_remote(idx); });
}

void Fabric::launch_remote(std::uint32_t idx) {
  Parked p = std::move(parked_[idx]);
  free_parked_.push_back(idx);
  eng_.spawn_daemon(deliver_remote(std::move(p.pkt), p.head));
}

// Destination-side half of a cross-shard cut-through: the head reaches our
// downlink at `head`; reserve it, wait out the destination NIC's SRAM
// back-pressure, and deliver when the tail has propagated.
sim::Task<void> Fabric::deliver_remote(WirePacket pkt, sim::Ps head) {
  const sim::Ps ser = ser_time(pkt);
  const int len = topo_.path_len(pkt.src, pkt.dst);
  const sim::Ps arrival = walk(pkt, len - 1, len, head, ser).head + ser;
  auto& ep = endpoints_[pkt.dst];
  assert(ep.slack && "destination NIC not attached");
  co_await ep.slack->acquire();
  co_await eng_.sleep_until(arrival);
  co_await deliver_body(std::move(pkt));
}

}  // namespace fmx::net
