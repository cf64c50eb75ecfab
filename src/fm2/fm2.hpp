// Fast Messages 2.x (paper §4, Table 2) — the paper's primary contribution.
//
// The stream abstraction replaces FM 1.x's contiguous buffers:
//   * Gather on send:   FM_begin_message / FM_send_piece / FM_end_message
//     compose a message from arbitrary pieces; FM packetizes transparently.
//   * Scatter on receive: handlers call FM_receive repeatedly to pull
//     arbitrary-sized chunks — e.g. header first, then payload directly
//     into the right destination buffer (layer interleaving: the upper
//     layer's knowledge steers FM's data movement, eliminating staging).
//   * Receiver flow control: FM_extract(bytes) bounds how much data is
//     presented; unextracted packets withhold credits, pacing senders.
//   * Transparent handler multithreading: a handler starts when the FIRST
//     packet of its message arrives and is a logical thread per message —
//     here literally a C++20 coroutine suspended inside FM_receive until
//     the next packet is extracted.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/buffer.hpp"
#include "common/buffer_pool.hpp"
#include "common/fmwire.hpp"
#include "common/handler_table.hpp"
#include "myrinet/node.hpp"
#include "sim/frame_pool.hpp"
#include "sim/ring.hpp"
#include "sim/sync.hpp"

namespace fmx::fm2 {

using HandlerId = std::uint16_t;
using PacketHeader = wire::PacketHeader;
using PacketType = wire::PacketType;

class Endpoint;
class RecvStream;

/// Handler coroutine. Runs logically inside FM_extract; may co_await only
/// RecvStream::receive/skip. One instance per incoming message.
class [[nodiscard]] HandlerTask {
 public:
  // One frame per incoming message; pooled so a message stream doesn't pay
  // an allocation per handler start.
  struct promise_type : sim::PooledFrame {
    HandlerTask get_return_object() {
      return HandlerTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { error = std::current_exception(); }
    std::exception_ptr error{};
  };

  HandlerTask() noexcept = default;
  HandlerTask(HandlerTask&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  HandlerTask& operator=(HandlerTask&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  ~HandlerTask() {
    if (h_) h_.destroy();
  }

  bool valid() const noexcept { return static_cast<bool>(h_); }
  bool done() const noexcept { return h_.done(); }
  void resume() { h_.resume(); }
  std::exception_ptr error() const noexcept { return h_.promise().error; }

 private:
  explicit HandlerTask(std::coroutine_handle<promise_type> h) noexcept
      : h_(h) {}
  std::coroutine_handle<promise_type> h_{};
};

using HandlerFn = std::function<HandlerTask(RecvStream&, int src)>;

/// Receive-side view of one in-flight message.
class RecvStream {
 public:
  explicit RecvStream(Endpoint* ep) noexcept : ep_(ep) {}
  RecvStream(const RecvStream&) = delete;
  RecvStream& operator=(const RecvStream&) = delete;

  /// Table 2: FM_receive(stream, buf, bytes). Awaitable inside a handler;
  /// suspends the handler until all requested bytes have been extracted.
  auto receive(MutByteSpan dst) { return Awaiter{*this, dst.data(),
                                                 dst.size()}; }
  auto receive(void* dst, std::size_t n) {
    return Awaiter{*this, static_cast<std::byte*>(dst), n};
  }
  /// Discard `n` bytes of the message (scatter's "don't care" case).
  auto skip(std::size_t n) { return Awaiter{*this, nullptr, n}; }

  int src() const noexcept { return src_; }
  /// Cross-layer trace id of this message (stable across the fabric).
  std::uint64_t trace_id() const noexcept { return trace_id_; }
  /// Total message length (from the message header).
  std::size_t msg_bytes() const noexcept { return msg_bytes_; }
  /// Bytes not yet consumed by the handler.
  std::size_t remaining() const noexcept { return msg_bytes_ - consumed_; }
  /// Bytes queued and immediately consumable without suspending.
  std::size_t available() const noexcept { return queued_; }
  /// Fabric arrival time of this message's first packet (wire timestamp,
  /// before any receive-queue wait). Lets handlers split end-to-end latency
  /// into transit vs. delivery/handler components. 0 until fed.
  sim::Ps first_arrival() const noexcept { return first_arrival_; }

 private:
  friend class Endpoint;

  struct Awaiter {
    RecvStream& s;
    std::byte* dst;
    std::size_t want;
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume();
  };
  struct Request {
    std::byte* dst;
    std::size_t want;
    std::size_t got;
  };

  void feed(net::RxPacket pkt);     // append packet data (header sub-sliced off)
  bool try_fulfill();               // move bytes into the open request
  void discard_all_queued();        // skip-mode drain

  /// Arm the stream for a message from `src`. Streams are pooled per
  /// endpoint and move between sources, so every field is set here; q_
  /// keeps its ring storage, so a reused stream never reallocates it.
  void reset(int src, std::uint32_t msg_bytes, std::uint32_t seq) noexcept {
    src_ = src;
    msg_bytes_ = msg_bytes;
    seq_ = seq;
    consumed_ = fed_ = queued_ = 0;
    head_off_ = 0;
    first_arrival_ = 0;
    req_.reset();
    waiting_ = {};
  }

  Endpoint* ep_;
  int src_ = -1;
  std::uint32_t msg_bytes_ = 0;
  std::uint32_t seq_ = 0;
  std::uint64_t trace_id_ = 0;  // set by Endpoint::start_message
  std::size_t consumed_ = 0;  // handler-consumed + skipped bytes
  std::size_t fed_ = 0;       // message bytes that have been fed
  std::size_t queued_ = 0;    // fed - consumed (bytes sitting in q_)
  sim::Ps first_arrival_ = 0;  // fabric arrival of the first fed packet
  sim::RingQueue<net::RxPacket> q_;  // payloads already header-stripped
  std::size_t head_off_ = 0;  // consumed offset within q_.front() payload
  std::optional<Request> req_;
  std::coroutine_handle<> waiting_{};
};

/// Send-side stream: a message under composition.
class SendStream {
 public:
  SendStream() = default;

 private:
  friend class Endpoint;
  SendStream(int dest, HandlerId handler, std::uint32_t total,
             std::uint32_t seq)
      : dest_(dest), handler_(handler), total_(total), seq_(seq) {}

  int dest_ = -1;
  HandlerId handler_ = 0;
  std::uint32_t total_ = 0;
  std::uint32_t seq_ = 0;
  std::uint64_t trace_id_ = 0;  // set by Endpoint::begin_message
  std::size_t sent_ = 0;       // payload bytes composed so far
  BufferRef pkt_;              // packet under assembly (incl. header space)
  std::size_t fill_ = 0;       // payload bytes in pkt_
  std::uint16_t pkt_index_ = 0;
  bool ended_ = false;
};

struct Config {
  int credits_per_peer = 0;          // 0 = ring slots / peers
  /// FM 2.x sends via NIC DMA from pinned host buffers; PIO is an ablation.
  bool pio_send = false;
  /// Ablation: deliver whole messages only (disable handler interleaving —
  /// the handler starts only after the last packet arrived, as in FM 1.x).
  bool whole_message_handlers = false;
};

class Endpoint {
 public:
  /// Bind to a node and the fabric (replica) it is attached to. An
  /// endpoint only ever touches its own node plus that fabric's
  /// pool/tracer, so it is naturally shard-local (see
  /// myrinet/parallel_cluster.hpp).
  Endpoint(net::Node& node, net::Fabric& fabric, Config cfg = {});
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // --- Table 2 API -------------------------------------------------------
  /// FM_begin_message(dest, size, handler): start composing a message of
  /// exactly `size` payload bytes.
  sim::Task<SendStream> begin_message(int dest, std::size_t size,
                                      HandlerId handler);
  /// FM_send_piece(stream, buf, bytes): append a piece (gather).
  sim::Task<void> send_piece(SendStream& s, ByteSpan piece);
  /// FM_end_message(stream): flush and finish the message.
  sim::Task<void> end_message(SendStream& s);
  /// FM_extract(bytes): process up to `budget` bytes of received data
  /// (rounded up to a packet boundary). Returns messages completed.
  sim::Task<int> extract(std::size_t budget = kNoLimit);

  static constexpr std::size_t kNoLimit = ~std::size_t{0};

  // --- Convenience -------------------------------------------------------
  /// begin + one piece + end.
  sim::Task<void> send(int dest, HandlerId handler, ByteSpan data);
  /// Gather convenience: one message from several pieces.
  sim::Task<void> send_gather(int dest, HandlerId handler,
                              std::span<const ByteSpan> pieces);
  // --- RDMA rendezvous extension -----------------------------------------
  // Remote-memory writes bypass the FM2 staging path entirely: no packet
  // header, no host ring, no credits. The NIC DMA-fetches chunks straight
  // out of the caller's (pinned) buffer and the destination NIC places them
  // straight into the registered receive buffer — zero host copies on both
  // sides. The registration cache (Host::reg_cache) models pin-down cost.

  struct RdmaBuffer {
    std::uint32_t rkey = 0;  ///< advertise to the writer (e.g. in a CTS)
    std::uint64_t mr = 0;    ///< pin-down handle; release_rdma() when done
  };
  /// Pin `dst` and post it to the NIC as a remote-write target.
  /// `on_complete` runs on the NIC when every byte has been placed; wake
  /// any poller yourself if the completion flips a polled condition.
  RdmaBuffer post_rdma_buffer(MutByteSpan dst,
                              std::function<void()> on_complete);

  struct RdmaOp {
    /// Borrowed view of the source buffer. Every in-flight chunk shares it;
    /// use_count() == 1 means the NIC/fabric/retention no longer reference
    /// the caller's memory (safe to reuse after release_rdma(mr)).
    BufferRef ref;
    std::uint64_t mr = 0;  ///< pin-down handle; release_rdma() when done
  };
  /// Remote-memory write of `src` into `dest`'s registered buffer `rkey`.
  /// Returns once every chunk is enqueued to the NIC (send completion is
  /// the DONE/ref-drain protocol of the layer above).
  sim::Task<RdmaOp> rdma_write(int dest, std::uint32_t rkey, ByteSpan src);

  /// Drop a pin-down reference taken by post_rdma_buffer / rdma_write.
  void release_rdma(std::uint64_t mr) { node_.host().reg_cache().release(mr); }

  // --- NIC-offloaded collectives (myrinet/coll.hpp) -----------------------
  // Barrier / broadcast / reduce executed inside the NIC control program:
  // combining and fan-out forwarding happen NIC-to-NIC along a topology-
  // derived tree, and the host is interrupted exactly once per operation,
  // at completion (observed by polling, like RDMA completions — interior
  // tree steps start no handlers). Operands are packed doubles for the
  // reductions, raw bytes for broadcast, at most spec.max_bytes per op.

  enum class CollRed { kSum, kMax };

  /// Install the group on this node's NIC and run the tree-wide join
  /// handshake; returns when membership is confirmed through the root.
  /// Every member must call this with an identical spec (content and
  /// order); the group root is spec.members[0].
  sim::Task<void> coll_join(const net::CollGroupSpec& spec);
  /// Barrier across the group.
  sim::Task<void> coll_barrier(std::uint32_t group);
  /// Broadcast from the group root: `buf` is the source there and the
  /// destination everywhere else.
  sim::Task<void> coll_bcast(std::uint32_t group, MutByteSpan buf);
  /// Rooted reduction; the result lands in `data` at the root only
  /// (elsewhere `data` is read as the local contribution, never written).
  sim::Task<void> coll_reduce(std::uint32_t group, std::span<double> data,
                              CollRed red);
  /// Like coll_reduce, but the result lands in `data` on every member.
  sim::Task<void> coll_allreduce(std::uint32_t group, std::span<double> data,
                                 CollRed red);

  /// Poll extract() until `done` returns true.
  sim::Task<void> poll_until(const std::function<bool()>& done);
  /// Sleep until there is something to extract (unless data is already
  /// waiting in the ring or parked host-side).
  sim::Task<void> wait_for_traffic();
  /// Wake a sleeping poll_until so it re-checks its condition — the local
  /// termination nudge for conditions that flip without network traffic.
  void kick() { node_.nic().host_ring().poke(); }

  void register_handler(HandlerId id, HandlerFn fn);

  /// Queue work to run (in host context, may send) after the current
  /// extract's packet loop — the escape hatch for handlers that need to
  /// reply, since handlers themselves may only receive.
  void defer(std::function<sim::Task<void>()> op) {
    deferred_.push_back(std::move(op));
  }

  int id() const noexcept { return node_.id(); }
  int cluster_size() const noexcept { return n_hosts_; }
  net::Host& host() noexcept { return node_.host(); }
  std::size_t max_payload_per_packet() const noexcept { return seg_; }
  /// The shard's tracer (owned by the fabric replica this endpoint
  /// attaches to; ParallelCluster::merged_trace() merges the shards).
  trace::Tracer& tracer() noexcept { return fabric_.tracer(); }

  struct Stats {
    std::uint64_t msgs_sent = 0;
    std::uint64_t msgs_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t packets_sent = 0;
    std::uint64_t pieces_sent = 0;
    std::uint64_t handler_starts = 0;
    std::uint64_t handler_resumes = 0;
    std::uint64_t credit_stall_events = 0;
    std::uint64_t credit_packets_sent = 0;
  };
  const Stats& stats() const noexcept { return stats_; }
  int credits_available(int peer) const { return peers_[peer].credits; }
  /// Messages whose handlers are currently suspended mid-receive.
  std::size_t active_handlers() const;

  // --- Invariant-checker exposure (src/fault/invariants.hpp) --------------
  /// Effective configuration after constructor defaulting.
  const Config& config() const noexcept { return cfg_; }
  /// Credits go back to a sender once this many of its slots were freed:
  /// half of credits_per_peer, at least 1.
  int credit_return_threshold() const noexcept {
    return credit_return_threshold_;
  }
  /// Receive slots freed locally but not yet returned to `src` as credits.
  int credits_pending_return(int src) const { return peers_[src].freed; }
  /// Packets parked host-side while a blocked sender hunted for credits.
  std::size_t parked_packets() const noexcept { return pending_.size(); }
  /// Packets of future messages waiting behind an unfinished one.
  std::size_t backlogged_packets() const noexcept {
    std::size_t n = 0;
    for (const auto& ctx : contexts_) n += ctx->backlog.size();
    return n;
  }

 private:
  friend class RecvStream;

  /// One in-flight incoming message. Contexts are pooled per endpoint:
  /// an endpoint owns as many as it has had messages in flight at once,
  /// not one per source it has heard from.
  struct MsgContext {
    explicit MsgContext(Endpoint* ep) noexcept : stream(ep) {}
    /// Arm for a message from `src`. The previous message's task was
    /// dropped when it retired.
    void reset(int src, std::uint32_t bytes, std::uint32_t seq,
               HandlerId handler) noexcept {
      stream.reset(src, bytes, seq);
      handler_id = handler;
      skip_rest = false;
    }
    RecvStream stream;
    HandlerTask task;
    HandlerId handler_id = 0;
    bool skip_rest = false;  // handler returned early; drop remaining bytes
    // Packets of the source's later messages, queued behind this one.
    sim::RingQueue<net::RxPacket> backlog;
  };
  /// Per-peer protocol state, both directions in one record.
  struct Peer {
    std::int32_t credits;     // send credits held toward the peer
    std::int32_t freed;       // receive slots freed, not yet returned
    std::uint32_t next_seq;   // sequence number of the next message sent
    MsgContext* current;      // message in progress from the peer, or null
  };
  static_assert(sizeof(Peer) == 24);

  sim::Task<void> flush_packet(SendStream& s, bool last);
  BufferRef stage_contrib(ByteSpan src);
  sim::Task<void> coll_run(std::uint32_t group, net::Nic::CollSubmit s);
  sim::Task<void> acquire_credit(int dest);
  std::uint16_t take_piggyback(int dest);
  void slot_freed(int src) {
    if (++peers_[src].freed >= credit_return_threshold_) {
      owed_[src >> 6] |= std::uint64_t{1} << (src & 63);
    }
  }
  /// Lowest peer >= `from` owed an explicit credit return, or -1.
  int next_owed(int from) const;
  sim::Task<void> return_credits(int dest);
  /// The shard's packet-buffer pool (owned by its fabric replica).
  BufferPool& pool() noexcept { return fabric_.pool(); }

  /// Route one data packet into its source's stream machinery.
  void ingest(net::RxPacket&& pkt, int* completed);
  void start_message(Peer& peer, int src, const PacketHeader& h);
  void run_handler(MsgContext& ctx, const HandlerFn& fn, int src);
  void pump(Peer& peer, int src, int* completed);
  void apply_credits(net::RxPacket& pkt);

  net::Fabric& fabric_;
  net::Node& node_;
  Config cfg_;
  int credit_return_threshold_ = 1;
  int n_hosts_;
  std::size_t seg_;
  HandlerTable<HandlerFn> handlers_;
  std::vector<Peer> peers_;
  // Bit p set iff peers_[p].freed >= credit_return_threshold_: extract()
  // visits only these peers, so a poll costs work per owed peer, not per
  // host.
  std::vector<std::uint64_t> owed_;
  // Every receive context this endpoint owns, and the ones not in use.
  // free_ctx_ is reserved to contexts_.size(), so retiring never allocates.
  std::vector<std::unique_ptr<MsgContext>> contexts_;
  std::vector<MsgContext*> free_ctx_;
  sim::RingQueue<net::RxPacket> pending_;  // parked while hunting for credits
  sim::RingQueue<std::function<sim::Task<void>()>> deferred_;
  Stats stats_;
};

// ---------------------------------------------------------------------------
// Table 2 free-function spelling (explicit endpoint, as in fm1).
inline sim::Task<SendStream> FM_begin_message(Endpoint& ep, int dest,
                                              std::size_t size,
                                              HandlerId handler) {
  return ep.begin_message(dest, size, handler);
}
inline sim::Task<void> FM_send_piece(Endpoint& ep, SendStream& s,
                                     ByteSpan buf) {
  return ep.send_piece(s, buf);
}
inline sim::Task<void> FM_end_message(Endpoint& ep, SendStream& s) {
  return ep.end_message(s);
}
inline sim::Task<int> FM_extract(Endpoint& ep,
                                 std::size_t bytes = Endpoint::kNoLimit) {
  return ep.extract(bytes);
}

}  // namespace fmx::fm2
