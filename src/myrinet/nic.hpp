// LANai-style network interface. Two "control programs" (coroutines) run on
// the simulated NIC processor: the send side drains a descriptor queue,
// optionally DMA-fetching payloads from host memory across the I/O bus, and
// injects packets into the fabric; the receive side drains the wire buffer,
// verifies CRC, and DMAs packets into the host receive ring.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "myrinet/coll.hpp"
#include "myrinet/fabric.hpp"
#include "myrinet/fault_hooks.hpp"
#include "myrinet/iobus.hpp"
#include "myrinet/packet.hpp"
#include "myrinet/params.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/sync.hpp"

namespace fmx::net {

/// A send request from the messaging layer. User-declared constructors per
/// the coroutine-parameter rule in sim/task.hpp.
struct SendDescriptor {
  SendDescriptor() = default;
  SendDescriptor(int dst_, BufferRef payload_, bool fetch_dma_)
      : dst(dst_), payload(std::move(payload_)), fetch_dma(fetch_dma_) {}

  int dst = -1;
  BufferRef payload;
  /// True: payload lives in host memory, the NIC DMA-fetches it across the
  /// bus (FM 2.x style). False: the bytes are already in NIC SRAM — either
  /// the host pushed them with programmed I/O and paid for the bus itself
  /// (FM 1.x style), or the NIC control program built them locally
  /// (collective combine/fan-out forwarding).
  bool fetch_dma = false;
  /// Tracing metadata (trace::Tracer::msg_id); copied onto the WirePacket.
  std::uint64_t trace_id = 0;
  /// Remote-write addressing, threaded onto the WirePacket (see packet.hpp).
  PacketKind kind = PacketKind::kData;
  std::uint32_t rkey = 0;
  std::uint32_t rdma_offset = 0;
  /// ECMP flow label, threaded onto the WirePacket (see packet.hpp).
  std::uint32_t flow = 0;
};
// Moved through two NIC channels per packet: a field that grows it must
// edit this number on purpose.
static_assert(sizeof(SendDescriptor) == 56);

class Nic {
 public:
  Nic(sim::Engine& eng, int id, const NicParams& p, IoBus& bus,
      Fabric& fabric)
      : eng_(eng),
        id_(id),
        p_(p),
        bus_(bus),
        fabric_(fabric),
        tx_queue_(eng, p.tx_queue_slots),
        tx_sram_(eng, p.sram_tx_slots),
        wire_in_(eng, sim::Channel<WirePacket>::kUnbounded),
        rx_checked_(eng, sim::Channel<RxPacket>::kUnbounded),
        rx_slack_(eng, static_cast<long>(p.sram_rx_slots)),
        host_ring_(eng, p.host_ring_slots),
        window_cv_(eng),
        ack_cv_(eng),
        rtx_cv_(eng),
        coll_in_(eng, sim::Channel<RxPacket>::kUnbounded),
        coll_cv_(eng) {
    fabric_.attach(id, &wire_in_, &rx_slack_);
    // Reach each bounded queue's high-water mark now: these are credit- or
    // slot-limited, so a deep streaming burst (e.g. one pair holding every
    // host-ring credit) can legally fill them mid-run, and the data path
    // must stay off the allocator when it does.
    tx_queue_.reserve(p.tx_queue_slots);
    tx_sram_.reserve(p.sram_tx_slots);
    host_ring_.reserve(p.host_ring_slots);
    coll_in_.reserve(p.sram_rx_slots);
    floor_gap_ = p_.per_packet_tx;
    if (p_.reliable_link) {
      tx_peers_.resize(fabric_.n_hosts());
      rx_peers_.resize(fabric_.n_hosts());
      floor_gap_ = std::min(
          {floor_gap_, p_.ack_delay, p_.retransmit_timeout / 2});
    }
  }
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Spawn the control programs. Call once after construction. Each
  /// direction is a two-stage pipeline (DMA engine overlapped with the wire
  /// side), as on the real LANai.
  void start() {
    eng_.spawn_daemon(tx_fetch_program());
    eng_.spawn_daemon(tx_inject_program());
    eng_.spawn_daemon(rx_wire_program());
    eng_.spawn_daemon(rx_dma_program());
    // coll_program is spawned lazily by the first coll_create: clusters
    // that never form a group run a bit-identical event schedule to the
    // pre-collective NIC (the determinism digests depend on this).
    if (p_.reliable_link) {
      eng_.spawn_daemon(ack_program());
      eng_.spawn_daemon(retransmit_program());
    }
  }

  int id() const noexcept { return id_; }
  const NicParams& params() const noexcept { return p_; }

  /// Enqueue a send; suspends if the descriptor queue is full. Hands back
  /// the queue's push task itself, so enqueue adds no frame of its own.
  sim::Task<void> enqueue(SendDescriptor d) {
    return tx_queue_.push(std::move(d));
  }

  /// Host receive region: the messaging layer's FM_extract pops from here.
  sim::Channel<RxPacket>& host_ring() noexcept { return host_ring_; }

  /// Register a remote-write target: incoming kRdmaWrite packets carrying
  /// the returned rkey are placed by the NIC's DMA engine directly into
  /// `dst` at their rdma_offset — the host CPU never copies the bytes.
  /// When every byte of `dst` has been placed (duplicates are idempotent:
  /// chunks are mtu-granular and each lands at most once), `on_complete`
  /// runs on the NIC and the registration is retired. The caller must keep
  /// `dst` valid until then.
  std::uint32_t post_rdma_target(MutByteSpan dst,
                                 std::function<void()> on_complete);

  // --- NIC-offloaded collectives (myrinet/coll.hpp) -----------------------
  /// One host-submitted collective operation. Program order per group is
  /// the epoch order; every member must submit the same op sequence.
  struct CollSubmit {
    CollSubmit() = default;
    CollOp op = CollOp::kBarrier;
    /// Local operand: reduce/allreduce contribution, or the broadcast
    /// payload at the root. Empty for barrier/join and non-root bcast.
    BufferRef contrib;
    /// Where delivered values land (reduce root, allreduce everywhere,
    /// bcast non-root). Must stay valid until on_complete runs.
    MutByteSpan result;
    /// Runs on the NIC at completion — the single host interruption of the
    /// whole operation. The NIC also pokes the host ring so pollers wake.
    std::function<void()> on_complete;
  };

  /// Install a collective group: derive this node's tree slice from the
  /// fabric topology and preallocate the per-group state (contribution
  /// queues, partial-reduce accumulator) so steady-state operations stay
  /// off the allocator. Packets arriving for a group not yet installed are
  /// parked and replayed at installation, so members may install in any
  /// order relative to wire traffic.
  void coll_create(const CollGroupSpec& spec);
  /// This node's tree slice (test/debug inspection).
  const CollTree& coll_tree_of(std::uint32_t id) const {
    return coll_groups_.at(id).tree;
  }
  /// Submit an operation on an installed group.
  void coll_submit(std::uint32_t group, CollSubmit s);
  /// Outstanding collective work on this NIC: queued host ops plus parked
  /// and buffered wire contributions (quiescence / invariant checks).
  std::size_t coll_pending() const noexcept {
    std::size_t n = coll_orphans_.size() + coll_in_.size();
    for (const auto& [id, g] : coll_groups_) {
      n += g.ops.size() + g.down_q.size();
      for (const auto& q : g.child_q) n += q.size();
    }
    return n;
  }

  struct Stats {
    std::uint64_t tx_packets = 0;
    std::uint64_t rx_packets = 0;
    std::uint64_t crc_dropped = 0;
    // reliable-link extension
    std::uint64_t retransmissions = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t seq_dropped = 0;  // duplicates + out-of-order discards
    // RDMA remote-write path
    std::uint64_t rdma_rx_chunks = 0;   // chunks placed into user memory
    std::uint64_t rdma_rx_bytes = 0;
    std::uint64_t rdma_completions = 0; // targets fully written
    std::uint64_t rdma_stale = 0;       // chunk for unknown/retired rkey
    // NIC-offloaded collectives
    std::uint64_t coll_rx_packets = 0;  // kColl packets consumed on the NIC
    std::uint64_t coll_combines = 0;    // child partials folded
    std::uint64_t coll_forwards = 0;    // combine/fanout packets emitted
    std::uint64_t coll_completions = 0; // host interruptions (one per op)
    std::uint64_t coll_orphaned = 0;    // arrivals parked before coll_create
    std::uint64_t coll_stale = 0;       // malformed / foreign-edge drops
  };
  const Stats& stats() const noexcept { return stats_; }
  /// Unacked packets currently retained (reliable-link mode).
  std::size_t unacked() const noexcept {
    std::size_t n = 0;
    for (const auto& p : tx_peers_) n += p.retained.size();
    return n;
  }

  /// Arm (or disarm) per-NIC fault pacing; shares the cluster's injector.
  void set_fault(FaultInjector* f) noexcept { fault_ = f; }

  /// Lower bound on when this NIC can next invoke Fabric::transmit, given
  /// that no local event runs before `e` (the shard's next-event time).
  /// Every *fresh* injection is separated from the event that triggers it
  /// by a control-program delay of at least floor_gap_ (per-packet tx time,
  /// ack coalescing window, or timeout sweep), so the floor is e +
  /// floor_gap_ except in three observable mid-pipeline states: a delay
  /// already armed (wire hit at its wake), a sender blocked on the
  /// retransmit window (an arriving ack releases it within the same
  /// event), or an ack/retransmit burst mid-loop (back-to-back transmits
  /// at uplink-drain wakes). The parallel scheduler combines this with the
  /// uplink next-free time, which covers the burst states' actual heads —
  /// see ParallelCluster::emission_bound.
  sim::Ps wire_floor(sim::Ps e) const noexcept {
    constexpr sim::Ps kNever = std::numeric_limits<sim::Ps>::max();
    if (window_blocked_ > 0 || emit_loops_ > 0) return e;
    sim::Ps f = e > kNever - floor_gap_ ? kNever : e + floor_gap_;
    return std::min({f, inject_armed_, ack_armed_, retx_armed_});
  }

  // --- Quiescence accessors (invariant checker) ---------------------------
  /// Inbound SRAM slack tokens currently home. Equals sram_rx_slots when no
  /// packet is in flight toward, buffered in, or staged inside this NIC.
  std::size_t sram_rx_free() const noexcept {
    return static_cast<std::size_t>(rx_slack_.available());
  }
  /// Send-side work not yet on the wire (descriptor queue + staged SRAM).
  std::size_t tx_backlog() const noexcept {
    return tx_queue_.size() + tx_sram_.size();
  }
  /// Receive-side packets checked but not yet DMAed to the host ring.
  std::size_t rx_staged() const noexcept { return rx_checked_.size(); }
  std::size_t host_ring_depth() const noexcept { return host_ring_.size(); }

 private:
  /// A posted remote-write landing zone. Chunks are mtu_payload-granular
  /// (offset = chunk_index * mtu), so a bitmap makes duplicate placements
  /// (retransmission + ack loss) idempotent.
  struct RdmaTarget {
    MutByteSpan dst;
    std::vector<bool> chunk_seen;
    std::size_t received = 0;  // distinct bytes placed so far
    std::function<void()> on_complete;
  };

  struct PeerTx {
    std::uint32_t next_seq = 0;
    std::uint32_t base = 0;                // oldest unacked
    sim::RingQueue<WirePacket> retained;   // [base, next_seq)
    sim::Ps last_progress = 0;
  };
  struct PeerRx {
    std::uint32_t expected = 0;
    bool ack_due = false;
  };

  /// Per-group collective state, NIC-resident. Contribution arrivals queue
  /// FIFO per tree edge: the link layer delivers each (src, dst) stream
  /// in order and exactly once, so the head of every child queue always
  /// belongs to the oldest unfinished epoch — head-presence across the
  /// child queues *is* the arrival bitmap, with later epochs parked behind
  /// it. All queues and the accumulator are sized at coll_create.
  struct CollGroup {
    CollGroup() = default;
    CollGroup(const CollGroup&) = delete;
    CollGroup& operator=(const CollGroup&) = delete;
    CollGroup(CollGroup&&) = default;
    CollGroup& operator=(CollGroup&&) = default;
    std::uint32_t id = 0;
    CollTree tree;
    std::size_t max_bytes = 0;
    std::uint32_t epoch = 0;  ///< ops completed; stamped on wire packets
    sim::RingQueue<CollSubmit> ops;               // host program order
    std::vector<sim::RingQueue<BufferRef>> child_q;  // up-sweep arrivals
    sim::RingQueue<BufferRef> down_q;             // down-sweep arrivals
    std::vector<std::byte> accum;                 // partial-reduce values
    // head-op progress
    bool fetched = false;   // local operand DMAed across the bus
    bool combined = false;  // up-sweep folded and (non-root) sent
    bool queued = false;    // on coll_dirty_
  };

  sim::Task<void> tx_fetch_program();
  sim::Task<void> tx_inject_program();
  sim::Task<void> rx_wire_program();
  sim::Task<void> rx_dma_program();
  sim::Task<void> ack_program();
  sim::Task<void> retransmit_program();
  sim::Task<void> coll_program();
  sim::Task<void> coll_advance(CollGroup& g);
  sim::Task<void> coll_emit(CollGroup& g, BufferRef payload, int dst);
  sim::Task<void> coll_complete(CollGroup& g, ByteSpan values);
  void coll_route(RxPacket pkt);
  void coll_mark_dirty(CollGroup& g);
  BufferRef coll_pack(const CollGroup& g, CollClass cls, CollOp op,
                      ByteSpan values);
  void process_ack(int peer, std::uint32_t ack);
  void place_rdma(RxPacket& pkt);

  sim::Engine& eng_;
  int id_;
  NicParams p_;
  IoBus& bus_;
  Fabric& fabric_;
  sim::Channel<SendDescriptor> tx_queue_;
  sim::Channel<SendDescriptor> tx_sram_;  // fetched, awaiting injection
  sim::Channel<WirePacket> wire_in_;      // bounded by rx_slack_ tokens
  sim::Channel<RxPacket> rx_checked_;     // CRC-checked, awaiting host DMA
  sim::Semaphore rx_slack_;
  sim::Channel<RxPacket> host_ring_;
  // reliable-link extension state: one entry per host when enabled. An
  // entry allocates nothing until its peer is used (a retention ring
  // allocates on its first send).
  std::vector<PeerTx> tx_peers_;
  std::vector<PeerRx> rx_peers_;
  // retransmit_program's copy of the window it resends: allocated on the
  // first retransmission, then reused. Cleared after each peer's burst,
  // because it holds BufferRef shares and RDMA's DONE protocol waits for
  // use_count() == 1.
  std::vector<WirePacket> rtx_window_;
  sim::CondVar window_cv_;   // tx blocked on the retransmit window
  sim::CondVar ack_cv_;      // acks pending coalescing
  sim::CondVar rtx_cv_;      // retained packets exist
  FaultInjector* fault_ = nullptr;
  Stats stats_;
  // RDMA remote-write targets, keyed by rkey. Deterministic: the counter
  // advances in posting order, which is simulation order.
  std::unordered_map<std::uint32_t, RdmaTarget> rdma_targets_;
  std::uint32_t next_rkey_ = 1;
  // NIC-offloaded collective state. Iteration never touches the map in a
  // nondeterministic order on the data path (groups advance via the FIFO
  // dirty ring); the map is only scanned by quiescence accessors.
  std::unordered_map<std::uint32_t, CollGroup> coll_groups_;
  sim::Channel<RxPacket> coll_in_;   // diverted kColl arrivals
  sim::CondVar coll_cv_;             // submissions / installs / arrivals
  sim::RingQueue<std::uint32_t> coll_dirty_;  // groups with pending work
  std::vector<RxPacket> coll_orphans_;  // arrivals before coll_create
  bool coll_running_ = false;  // coll_program spawned (first coll_create)
  // wire_floor state, written only by this NIC's control programs (same
  // engine, hence same worker thread as ParallelCluster::emission_bound).
  static constexpr sim::Ps kNeverArmed = std::numeric_limits<sim::Ps>::max();
  sim::Ps floor_gap_ = 0;             // min delay before any fresh transmit
  sim::Ps inject_armed_ = kNeverArmed;  // tx inject mid-delay: wake time
  sim::Ps ack_armed_ = kNeverArmed;     // ack program mid-coalesce-delay
  sim::Ps retx_armed_ = kNeverArmed;    // retransmit mid-sweep-delay
  int window_blocked_ = 0;  // senders blocked on the retransmit window
  int emit_loops_ = 0;      // ack/retransmit bursts currently mid-loop
};

}  // namespace fmx::net
