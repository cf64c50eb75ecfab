#include "myrinet/nic.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "common/copy_stats.hpp"

namespace fmx::net {

// Send stage 1: DMA engine fetches payloads from host memory into NIC SRAM.
// Bounded tx_sram_ keeps the DMA engine at most a few packets ahead of the
// wire, like the real LANai's limited SRAM.
sim::Task<void> Nic::tx_fetch_program() {
  for (;;) {
    SendDescriptor d = co_await tx_queue_.pop();
    if (d.fetch_dma) {
      fabric_.tracer().record(trace::EventType::kDmaStart, trace::Layer::kNic,
                              id_, d.trace_id, d.payload.size());
      co_await bus_.dma(d.payload.size());
      fabric_.tracer().record(trace::EventType::kDmaEnd, trace::Layer::kNic,
                              id_, d.trace_id, d.payload.size());
    }
    co_await tx_sram_.push(std::move(d));
  }
}

// Send stage 2: control program frames the packet and drives the link.
// In reliable-link mode it also stamps go-back-N sequence numbers, retains
// copies for retransmission, and piggybacks cumulative acks.
sim::Task<void> Nic::tx_inject_program() {
  for (;;) {
    SendDescriptor d = co_await tx_sram_.pop();
    // Arm the wire floor across each delay: while suspended here the next
    // transmit can land exactly at the wake, not a full floor_gap_ past the
    // shard's next event (see Nic::wire_floor).
    inject_armed_ = eng_.now() + p_.per_packet_tx;
    co_await eng_.delay(p_.per_packet_tx);
    inject_armed_ = kNeverArmed;
    if (fault_ != nullptr) {
      if (sim::Ps stall = fault_->tx_pacing(id_); stall > 0) {
        inject_armed_ = eng_.now() + stall;
        co_await eng_.delay(stall);
        inject_armed_ = kNeverArmed;
      }
    }
    ++stats_.tx_packets;
    WirePacket pkt = WirePacket::make(id_, d.dst, std::move(d.payload));
    pkt.trace_id = d.trace_id;
    pkt.kind = d.kind;
    pkt.rkey = d.rkey;
    pkt.rdma_offset = d.rdma_offset;
    pkt.flow = d.flow;
    if (p_.reliable_link) {
      PeerTx& pt = tx_peers_[d.dst];
      while (pt.retained.size() >=
             static_cast<std::size_t>(p_.retransmit_window)) {
        // The ack that opens the window releases us within its own event;
        // the floor collapses to e while we sit here.
        ++window_blocked_;
        co_await window_cv_.wait();
        --window_blocked_;
      }
      pkt.link_seq = pt.next_seq++;
      PeerRx& pr = rx_peers_[d.dst];
      if (pr.ack_due) {
        pkt.has_ack = true;
        pkt.ack = pr.expected;
        pr.ack_due = false;
      }
      if (pt.retained.empty()) pt.last_progress = eng_.now();
      // Go-back-N retention is a reference share, not a copy: the retained
      // packet aliases the in-flight block. Fault corruption on the wire
      // goes through copy-on-write, so the retained bytes stay pristine
      // for retransmission.
      pt.retained.push_back(pkt);
      rtx_cv_.notify_all();
    }
    co_await fabric_.transmit(std::move(pkt));
  }
}

void Nic::process_ack(int peer, std::uint32_t ack) {
  PeerTx& pt = tx_peers_[peer];
  bool advanced = false;
  while (pt.base < ack && !pt.retained.empty()) {
    pt.retained.pop_front();  // last reference returns the block to the pool
    ++pt.base;
    advanced = true;
  }
  if (advanced) {
    pt.last_progress = eng_.now();
    window_cv_.notify_all();
  }
}

// Receive stage 1: drain the wire, verify CRC, and (in reliable mode)
// enforce go-back-N sequencing. Anything dropped here frees its SRAM slot
// immediately; the sender's timeout recovers the data.
sim::Task<void> Nic::rx_wire_program() {
  for (;;) {
    WirePacket pkt = co_await wire_in_.pop();
    // Collective steps are consumed in SRAM by the control program — no
    // host-DMA descriptor, no receive-ring slot — so they cost coll_op,
    // not the full per_packet_rx. This is most of the NIC-offload win:
    // fan-in arrivals serialize through this program, and a combining
    // node pays the cheap charge once per child.
    co_await eng_.delay(pkt.kind == PacketKind::kColl ? p_.coll_op
                                                      : p_.per_packet_rx);
    if (fault_ != nullptr) {
      if (sim::Ps stall = fault_->rx_pacing(id_); stall > 0) {
        co_await eng_.delay(stall);
      }
    }
    const bool crc_ok = pkt.crc_ok();
    fabric_.tracer().record(trace::EventType::kCrcCheck, trace::Layer::kNic,
                            id_, pkt.trace_id, crc_ok ? 1 : 0);
    if (!crc_ok) {
      ++stats_.crc_dropped;
      fabric_.tracer().record(trace::EventType::kDrop, trace::Layer::kNic,
                              id_, pkt.trace_id, trace::kDropCrc);
      pkt.payload.reset();  // release the block before the next pop suspends
      rx_slack_.release();
      continue;
    }
    if (p_.reliable_link) {
      if (pkt.has_ack) process_ack(pkt.src, pkt.ack);
      if (pkt.ack_only) {
        pkt.payload.reset();
        rx_slack_.release();
        continue;
      }
      PeerRx& pr = rx_peers_[pkt.src];
      if (pkt.link_seq != pr.expected) {
        // Go-back-N: duplicates and gaps are both discarded; re-ack so the
        // sender learns where we stand.
        ++stats_.seq_dropped;
        fabric_.tracer().record(trace::EventType::kDrop, trace::Layer::kNic,
                                id_, pkt.trace_id, trace::kDropSeq);
        pkt.payload.reset();
        pr.ack_due = true;
        ack_cv_.notify_all();
        rx_slack_.release();
        continue;
      }
      ++pr.expected;
      pr.ack_due = true;
      ack_cv_.notify_all();
    }
    RxPacket rx(pkt.src, std::move(pkt.payload), eng_.now());
    rx.trace_id = pkt.trace_id;
    rx.kind = pkt.kind;
    rx.rkey = pkt.rkey;
    rx.rdma_offset = pkt.rdma_offset;
    if (rx.kind == PacketKind::kColl) {
      // Collective steps are consumed inside the NIC: hand the packet to
      // the collective engine and return the SRAM token immediately — the
      // payload moves to control-program scratch, so a slow combine (e.g.
      // one waiting on a sibling subtree) never backpressures the wire.
      co_await coll_in_.push(std::move(rx));
      coll_cv_.notify_all();
      rx_slack_.release();
      continue;
    }
    co_await rx_checked_.push(std::move(rx));
  }
}

// Receive stage 2: DMA engine moves packets into the host receive ring;
// only then is the SRAM slot (slack token) returned to the fabric. Remote-
// write packets take the RDMA branch: the same bus DMA occupancy, but the
// bytes land directly in the registered user buffer and never enter the
// host ring — the host CPU is not involved at all.
sim::Task<void> Nic::rx_dma_program() {
  for (;;) {
    RxPacket pkt = co_await rx_checked_.pop();
    fabric_.tracer().record(trace::EventType::kDmaStart, trace::Layer::kNic,
                            id_, pkt.trace_id, pkt.payload.size());
    co_await bus_.dma(pkt.payload.size());
    fabric_.tracer().record(trace::EventType::kDmaEnd, trace::Layer::kNic,
                            id_, pkt.trace_id, pkt.payload.size());
    ++stats_.rx_packets;
    pkt.arrived = eng_.now();
    if (pkt.kind == PacketKind::kRdmaWrite) {
      place_rdma(pkt);
      pkt.payload.reset();  // release before the next pop suspends
      rx_slack_.release();
      continue;
    }
    co_await host_ring_.push(std::move(pkt));
    rx_slack_.release();
  }
}

std::uint32_t Nic::post_rdma_target(MutByteSpan dst,
                                    std::function<void()> on_complete) {
  assert(!dst.empty() && "zero-length RDMA target");
  const std::uint32_t rkey = next_rkey_++;
  RdmaTarget& t = rdma_targets_[rkey];
  t.dst = dst;
  t.chunk_seen.assign((dst.size() + p_.mtu_payload - 1) / p_.mtu_payload,
                      false);
  t.on_complete = std::move(on_complete);
  return rkey;
}

// Place one remote-write chunk. Duplicates (go-back-N retransmission races,
// fault-injected dup packets) are detected by the chunk bitmap and ignored;
// chunks for retired rkeys (late duplicates after completion) are dropped.
void Nic::place_rdma(RxPacket& pkt) {
  auto it = rdma_targets_.find(pkt.rkey);
  if (it == rdma_targets_.end()) {
    ++stats_.rdma_stale;
    return;
  }
  RdmaTarget& t = it->second;
  const std::size_t off = pkt.rdma_offset;
  const std::size_t idx = off / p_.mtu_payload;
  if (idx >= t.chunk_seen.size() || off % p_.mtu_payload != 0 ||
      off + pkt.payload.size() > t.dst.size()) {
    ++stats_.rdma_stale;  // malformed/foreign chunk; drop
    return;
  }
  if (t.chunk_seen[idx]) return;  // idempotent duplicate
  t.chunk_seen[idx] = true;
  t.received += pkt.payload.size();
  // The one physical placement of these bytes in the whole simulator:
  // modeled as the NIC's DMA write into pinned user memory (bus occupancy
  // already paid above), counted in the rdma category, never as a host copy.
  std::memcpy(t.dst.data() + off, pkt.payload.data(), pkt.payload.size());
  count_rdma_write(pkt.payload.size());
  ++stats_.rdma_rx_chunks;
  stats_.rdma_rx_bytes += pkt.payload.size();
  fabric_.tracer().record(trace::EventType::kRdmaWrite, trace::Layer::kNic,
                          id_, pkt.trace_id, pkt.payload.size());
  if (t.received == t.dst.size()) {
    ++stats_.rdma_completions;
    fabric_.tracer().record(trace::EventType::kRdmaDone, trace::Layer::kNic,
                            id_, pkt.trace_id, t.dst.size());
    auto done = std::move(t.on_complete);
    rdma_targets_.erase(it);
    if (done) done();
    // Completion is polled, not delivered through the host ring; wake any
    // poller sleeping on ring traffic so it notices the state change.
    host_ring_.poke();
  }
}

// --- NIC-offloaded collectives (myrinet/coll.hpp) ---------------------------

namespace {

// In-place pairwise reduction over packed doubles. memcpy keeps the
// accumulator free of alignment assumptions; the fold order is the tree's
// deterministic child order, so floating-point results are bit-stable at
// every thread count.
void coll_fold(std::byte* acc, const std::byte* in, std::size_t bytes,
               CollOp op) {
  for (std::size_t o = 0; o + sizeof(double) <= bytes; o += sizeof(double)) {
    double a, b;
    std::memcpy(&a, acc + o, sizeof(double));
    std::memcpy(&b, in + o, sizeof(double));
    a = (op == CollOp::kReduceMax || op == CollOp::kAllreduceMax)
            ? std::max(a, b)
            : a + b;
    std::memcpy(acc + o, &a, sizeof(double));
  }
}

std::uint64_t coll_msg_id(int node, std::uint32_t group,
                          std::uint32_t epoch) {
  return trace::Tracer::msg_id(node, static_cast<int>(group & 0xFFF),
                               trace::Layer::kNic, epoch);
}

}  // namespace

void Nic::coll_create(const CollGroupSpec& spec) {
  // Lazy engine start: clusters that never form a group keep the exact
  // pre-collective event schedule (the pinned determinism digests).
  if (!coll_running_) {
    coll_running_ = true;
    eng_.spawn_daemon(coll_program());
  }
  assert(!spec.members.empty());
  assert(std::find(spec.members.begin(), spec.members.end(), id_) !=
         spec.members.end() &&
         "installing node must be a group member");
  assert(coll_groups_.find(spec.id) == coll_groups_.end() &&
         "group id already installed");
  CollGroup g;
  g.id = spec.id;
  g.tree = coll_tree(fabric_.topo(), spec.members, spec.radix, id_);
  g.max_bytes = spec.max_bytes;
  g.accum.resize(spec.max_bytes);
  // Reach steady-state capacity now: a handful of in-flight epochs per
  // queue covers any pipelined submission pattern without allocating.
  g.ops.reserve(8);
  g.down_q.reserve(8);
  g.child_q.resize(g.tree.children.size());
  for (auto& q : g.child_q) q.reserve(8);
  coll_groups_.emplace(spec.id, std::move(g));
  // Replay arrivals that beat the install, preserving arrival order
  // (non-matching ones re-park inside coll_route).
  if (!coll_orphans_.empty()) {
    std::vector<RxPacket> parked;
    parked.swap(coll_orphans_);
    for (auto& pkt : parked) coll_route(std::move(pkt));
  }
  coll_cv_.notify_all();
}

void Nic::coll_submit(std::uint32_t group, CollSubmit s) {
  auto it = coll_groups_.find(group);
  assert(it != coll_groups_.end() && "coll_submit before coll_create");
  CollGroup& g = it->second;
  assert(s.contrib.size() <= g.max_bytes && s.result.size() <= g.max_bytes &&
         "operand exceeds the group's preallocated capacity");
  fabric_.tracer().record(trace::EventType::kCollSubmit, trace::Layer::kNic,
                          id_, coll_msg_id(id_, g.id, g.epoch),
                          s.contrib.size());
  g.ops.push_back(std::move(s));
  coll_mark_dirty(g);
  coll_cv_.notify_all();
}

void Nic::coll_mark_dirty(CollGroup& g) {
  if (g.queued) return;
  g.queued = true;
  coll_dirty_.push_back(g.id);
}

// Classify one kColl arrival onto its tree edge. Up-sweep packets (join/
// combine) queue FIFO per child; down-sweep packets (fanout/done) queue
// FIFO from the parent. Malformed payloads and packets from nodes that are
// not tree neighbors are dropped (with reliable_link the sender's timeout
// re-delivers a clean copy; corruption never folds into an accumulator).
void Nic::coll_route(RxPacket pkt) {
  CollHeader h;
  if (!coll_parse(pkt.payload.span(), h) ||
      pkt.payload.size() != kCollHeaderBytes + h.bytes) {
    ++stats_.coll_stale;
    return;
  }
  auto it = coll_groups_.find(h.group);
  if (it == coll_groups_.end()) {
    ++stats_.coll_orphaned;
    coll_orphans_.push_back(std::move(pkt));
    return;
  }
  CollGroup& g = it->second;
  const auto cls = static_cast<CollClass>(h.cls);
  if (cls == CollClass::kJoin || cls == CollClass::kCombine) {
    int ci = -1;
    for (std::size_t i = 0; i < g.tree.children.size(); ++i) {
      if (g.tree.children[i] == pkt.src) {
        ci = static_cast<int>(i);
        break;
      }
    }
    if (ci < 0) {
      ++stats_.coll_stale;
      return;
    }
    g.child_q[static_cast<std::size_t>(ci)].push_back(
        std::move(pkt.payload));
  } else {
    if (pkt.src != g.tree.parent) {
      ++stats_.coll_stale;
      return;
    }
    g.down_q.push_back(std::move(pkt.payload));
  }
  ++stats_.coll_rx_packets;
  coll_mark_dirty(g);
}

BufferRef Nic::coll_pack(const CollGroup& g, CollClass cls, CollOp op,
                         ByteSpan values) {
  BufferRef buf =
      fabric_.pool().acquire_ref(kCollHeaderBytes + values.size());
  CollHeader h;
  h.group = g.id;
  h.epoch = g.epoch;
  h.cls = static_cast<std::uint8_t>(cls);
  h.op = static_cast<std::uint8_t>(op);
  h.bytes = static_cast<std::uint32_t>(values.size());
  MutByteSpan out = buf.mutable_bytes();
  coll_store(out, h);
  if (!values.empty())
    std::memcpy(out.data() + kCollHeaderBytes, values.data(), values.size());
  return buf;
}

// Hand one collective packet to the ordinary send pipeline. fetch_dma is
// false — the bytes were assembled in NIC SRAM, no host-memory fetch — and
// the transmit goes through tx_inject's per_packet_tx delay like any other
// send, which is what keeps Nic::wire_floor's fresh-transmit bound intact.
sim::Task<void> Nic::coll_emit(CollGroup& g, BufferRef payload, int dst) {
  SendDescriptor d(dst, std::move(payload), /*fetch_dma=*/false);
  d.kind = PacketKind::kColl;
  d.trace_id = coll_msg_id(id_, g.id, g.epoch);
  ++stats_.coll_forwards;
  fabric_.tracer().record(trace::EventType::kCollForward, trace::Layer::kNic,
                          id_, d.trace_id,
                          static_cast<std::uint64_t>(dst));
  co_await tx_queue_.push(std::move(d));
}

// Retire the head operation: place delivered values into the host buffer
// (one bus DMA — the operation's only host-memory write), run the
// completion callback, and wake pollers. This is the single host
// interruption of the whole collective.
sim::Task<void> Nic::coll_complete(CollGroup& g, ByteSpan values) {
  CollSubmit op = g.ops.take_front();
  g.fetched = false;
  g.combined = false;
  fabric_.tracer().record(trace::EventType::kCollDone, trace::Layer::kNic,
                          id_, coll_msg_id(id_, g.id, g.epoch),
                          values.size());
  ++g.epoch;
  ++stats_.coll_completions;
  if (!values.empty() && !op.result.empty()) {
    const std::size_t n = std::min(values.size(), op.result.size());
    co_await bus_.dma(n);
    std::memcpy(op.result.data(), values.data(), n);
  }
  if (op.on_complete) op.on_complete();
  // Completion is polled, RDMA-style: no host-ring entry, just a wake for
  // pollers sleeping on ring traffic.
  host_ring_.poke();
}

// Drive the head operation of one group as far as the arrived traffic
// allows. Ops complete strictly in submission (epoch) order; per-edge FIFO
// delivery guarantees every child-queue head belongs to the head epoch.
sim::Task<void> Nic::coll_advance(CollGroup& g) {
  for (;;) {
    if (g.ops.empty()) co_return;
    const CollOp op = g.ops.front().op;
    const bool root = g.tree.parent < 0;

    // Up-sweep: fold the local operand with every child's partial, then
    // forward one combined partial toward the root.
    if (coll_has_up(op) && !g.combined) {
      const std::size_t vbytes = g.ops.front().contrib.size();
      if (!g.fetched) {
        // One bus transaction fetches the submit descriptor + operand.
        // Prefetched on the submit wake-up, BEFORE waiting for children:
        // at interior nodes the DMA overlaps the child subtrees' arrivals
        // instead of adding a bus round-trip per tree level to the
        // critical path.
        g.fetched = true;
        co_await bus_.dma(kCollHeaderBytes + vbytes);
      }
      bool ready = true;
      for (const auto& q : g.child_q) ready = ready && !q.empty();
      if (!ready) co_return;
      if (vbytes > 0)
        std::memcpy(g.accum.data(), g.ops.front().contrib.data(), vbytes);
      sim::Ps cost = p_.coll_op;
      for (auto& q : g.child_q) {
        BufferRef b = q.take_front();
        CollHeader h;
        coll_parse(b.span(), h);
        assert(h.epoch == g.epoch && h.bytes == vbytes &&
               h.op == static_cast<std::uint8_t>(op) &&
               "tree-edge FIFO order violated");
        (void)h;
        coll_fold(g.accum.data(), b.data() + kCollHeaderBytes, vbytes, op);
        cost += p_.coll_op +
                static_cast<sim::Ps>(p_.coll_ps_per_byte *
                                     static_cast<double>(vbytes));
        ++stats_.coll_combines;
        fabric_.tracer().record(trace::EventType::kCollCombine,
                                trace::Layer::kNic, id_,
                                coll_msg_id(id_, g.id, g.epoch), vbytes);
      }
      co_await eng_.delay(cost);
      g.combined = true;
      const ByteSpan folded{g.accum.data(), vbytes};
      if (!root) {
        co_await coll_emit(
            g,
            coll_pack(g, op == CollOp::kJoin ? CollClass::kJoin
                                             : CollClass::kCombine,
                      op, folded),
            g.tree.parent);
        if (!coll_has_down(op)) {
          // Rooted reduce: an interior node is done once its partial is
          // on its way up; only the root ever delivers values.
          co_await coll_complete(g, {});
          continue;
        }
        // Fall through: wait for the root's fan-down.
      } else {
        if (coll_has_down(op)) {
          // Barrier release / join confirmation carry no operand; the
          // allreduce result fans out the folded values.
          const bool carry = op == CollOp::kAllreduceSum ||
                             op == CollOp::kAllreduceMax;
          BufferRef down =
              coll_pack(g, op == CollOp::kJoin ? CollClass::kDone
                                               : CollClass::kFanout,
                        op, carry ? folded : ByteSpan{});
          for (int c : g.tree.children) co_await coll_emit(g, down, c);
          co_await coll_complete(g, carry ? folded : ByteSpan{});
        } else {
          co_await coll_complete(g, folded);  // reduce root: final value
        }
        continue;
      }
    }

    if (!coll_has_down(op)) co_return;  // unreachable guard

    // Root broadcast: no up-sweep, the local operand fans straight out.
    if (root && op == CollOp::kBcast) {
      const std::size_t vbytes = g.ops.front().contrib.size();
      if (!g.fetched) {
        g.fetched = true;
        co_await bus_.dma(kCollHeaderBytes + vbytes);
      }
      co_await eng_.delay(p_.coll_op);
      BufferRef down =
          coll_pack(g, CollClass::kFanout, op, g.ops.front().contrib.span());
      for (int c : g.tree.children) co_await coll_emit(g, down, c);
      // The root's data is already in the user buffer; nothing to place.
      co_await coll_complete(g, {});
      continue;
    }

    // Down-sweep at an interior node / leaf: forward the parent's packet
    // to the children verbatim (a reference share, zero repack), then
    // deliver its values locally.
    if (g.down_q.empty()) co_return;
    BufferRef down = g.down_q.take_front();
    CollHeader h;
    coll_parse(down.span(), h);
    assert(h.epoch == g.epoch &&
           h.op == static_cast<std::uint8_t>(op) &&
           "tree-edge FIFO order violated");
    (void)h;
    co_await eng_.delay(p_.coll_op);
    for (int c : g.tree.children) co_await coll_emit(g, down, c);
    co_await coll_complete(
        g, down.span().subspan(kCollHeaderBytes));
  }
}

// The collective control program: one daemon per NIC drains diverted kColl
// arrivals onto their tree edges and advances every group with runnable
// work. Single-threaded per NIC and fed by FIFO queues, so processing
// order — and therefore every fold order and timestamp — is deterministic.
sim::Task<void> Nic::coll_program() {
  for (;;) {
    if (coll_in_.empty() && coll_dirty_.empty()) {
      co_await coll_cv_.wait();
      continue;
    }
    while (auto pkt = coll_in_.try_pop()) coll_route(std::move(*pkt));
    while (!coll_dirty_.empty()) {
      const std::uint32_t gid = coll_dirty_.take_front();
      auto it = coll_groups_.find(gid);
      assert(it != coll_groups_.end());
      it->second.queued = false;
      co_await coll_advance(it->second);
      // Arrivals that landed while advancing re-mark their groups dirty.
      while (auto pkt = coll_in_.try_pop()) coll_route(std::move(*pkt));
    }
  }
}

// Reliable-link: coalesced ack generation. Sleeps until a receive marks an
// ack due, waits the coalescing window (reverse data traffic may piggyback
// it meanwhile), then emits explicit ack packets for what is still owed.
sim::Task<void> Nic::ack_program() {
  for (;;) {
    bool any_due = false;
    for (auto& pr : rx_peers_) any_due |= pr.ack_due;
    if (!any_due) {
      co_await ack_cv_.wait();
      continue;
    }
    ack_armed_ = eng_.now() + p_.ack_delay;
    co_await eng_.delay(p_.ack_delay);
    ack_armed_ = kNeverArmed;
    // Back-to-back ack transmits wake at uplink drains, with no interposed
    // delay; the floor drops to e for the burst (the uplink next-free term
    // still covers the true heads).
    ++emit_loops_;
    for (int peer = 0; peer < static_cast<int>(rx_peers_.size()); ++peer) {
      PeerRx& pr = rx_peers_[peer];
      if (!pr.ack_due) continue;
      pr.ack_due = false;
      WirePacket ack = WirePacket::make(id_, peer, BufferRef{});
      ack.has_ack = true;
      ack.ack = pr.expected;
      ack.ack_only = true;
      ++stats_.acks_sent;
      co_await fabric_.transmit(std::move(ack));
    }
    --emit_loops_;
  }
}

// Reliable-link: timeout sweep. Sleeps while nothing is outstanding; while
// packets are retained, checks every timeout/2 whether the oldest has been
// waiting past the timeout and, if so, resends the whole window (go-back-N).
sim::Task<void> Nic::retransmit_program() {
  for (;;) {
    std::size_t outstanding = unacked();
    if (outstanding == 0) {
      co_await rtx_cv_.wait();
      continue;
    }
    retx_armed_ = eng_.now() + p_.retransmit_timeout / 2;
    co_await eng_.delay(p_.retransmit_timeout / 2);
    retx_armed_ = kNeverArmed;
    ++emit_loops_;
    for (int peer = 0; peer < static_cast<int>(tx_peers_.size()); ++peer) {
      PeerTx& pt = tx_peers_[peer];
      if (pt.retained.empty()) continue;
      if (eng_.now() - pt.last_progress < p_.retransmit_timeout) continue;
      pt.last_progress = eng_.now();
      // Snapshot the window: transmits suspend, and an ack arriving
      // meanwhile pops from pt.retained (iterating it live would be a
      // use-after-free). Stale retransmissions are dropped as duplicates.
      // The copy's buffer is sized once, to the largest window.
      rtx_window_.reserve(static_cast<std::size_t>(p_.retransmit_window));
      for (std::size_t i = 0; i < pt.retained.size(); ++i) {
        rtx_window_.push_back(pt.retained[i]);
      }
      for (const WirePacket& pkt : rtx_window_) {
        ++stats_.retransmissions;
        fabric_.tracer().record(trace::EventType::kRetransmit,
                                trace::Layer::kNic, id_, pkt.trace_id,
                                pkt.link_seq);
        co_await fabric_.transmit(pkt);
      }
      rtx_window_.clear();
    }
    --emit_loops_;
  }
}

}  // namespace fmx::net
