#include "fm2/fm2.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace fmx::fm2 {

using sim::Cost;

namespace {

constexpr std::size_t kHdr = sizeof(PacketHeader);
constexpr sim::Ps kHeaderBuildCost = sim::ns(150);
constexpr sim::Ps kHeaderParseCost = sim::ns(100);
constexpr sim::Ps kCreditOpCost = sim::ns(100);
constexpr sim::Ps kResumeCost = sim::ns(100);
constexpr sim::Ps kSkipPerPacketCost = sim::ns(50);
// Cap on packets parked host-side while a blocked sender drains its ring
// looking for credit packets (sender-progress guarantee).
constexpr std::size_t kPendingLimit = 4096;

}  // namespace

// ---------------------------------------------------------------------------
// RecvStream

bool RecvStream::Awaiter::await_ready() {
  if (s.req_.has_value()) {
    throw std::logic_error("FM2: nested FM_receive on one stream");
  }
  if (want > s.remaining()) {
    throw std::logic_error("FM2: FM_receive beyond end of message");
  }
  s.req_ = Request{dst, want, 0};
  return s.try_fulfill();
}

void RecvStream::Awaiter::await_suspend(std::coroutine_handle<> h) {
  s.waiting_ = h;
}

void RecvStream::Awaiter::await_resume() { s.req_.reset(); }

void RecvStream::feed(net::RxPacket pkt) {
  std::size_t data = pkt.payload.size() - kHdr;
  if (fed_ == 0) first_arrival_ = pkt.arrived;
  fed_ += data;
  if (data == 0) {
    pkt.payload.reset();
    ep_->slot_freed(src_);  // header-only packet: slot free immediately
    return;
  }
  // Scatter entry point: drop the header by sub-slicing, not by copying —
  // the queued view starts at the data bytes and the underlying block goes
  // home when the handler has consumed the last of them.
  pkt.payload = pkt.payload.subslice(kHdr, data);
  queued_ += data;
  q_.push_back(std::move(pkt));
}

bool RecvStream::try_fulfill() {
  if (!req_.has_value()) return false;
  Request& r = *req_;
  auto& host = ep_->host();
  while (r.got < r.want && !q_.empty()) {
    net::RxPacket& front = q_.front();
    std::size_t avail = front.payload.size() - head_off_;
    std::size_t take = std::min(avail, r.want - r.got);
    if (r.dst != nullptr) {
      // The single receive-side copy: ring slot -> user buffer.
      host.copy(MutByteSpan{r.dst + r.got, take},
                front.payload.span().subspan(head_off_, take));
    } else {
      host.charge(Cost::kBufferMgmt, kSkipPerPacketCost);
    }
    head_off_ += take;
    r.got += take;
    consumed_ += take;
    queued_ -= take;
    if (head_off_ == front.payload.size()) {
      front.payload.reset();  // last reference returns the block
      q_.pop_front();
      head_off_ = 0;
      ep_->slot_freed(src_);  // packet fully consumed: credit goes home
    }
  }
  return r.got == r.want;
}

void RecvStream::discard_all_queued() {
  auto& host = ep_->host();
  while (!q_.empty()) {
    net::RxPacket& front = q_.front();
    std::size_t avail = front.payload.size() - head_off_;
    consumed_ += avail;
    queued_ -= avail;
    host.charge(Cost::kBufferMgmt, kSkipPerPacketCost);
    front.payload.reset();
    q_.pop_front();
    head_off_ = 0;
    ep_->slot_freed(src_);
  }
}

// ---------------------------------------------------------------------------
// Endpoint: construction and send side

Endpoint::Endpoint(net::Node& node, net::Fabric& fabric, Config cfg)
    : fabric_(fabric),
      node_(node),
      cfg_(cfg),
      n_hosts_(fabric.n_hosts()) {
  const auto& nic = node_.nic().params();
  assert(nic.mtu_payload > kHdr);
  seg_ = nic.mtu_payload - kHdr;
  if (cfg_.credits_per_peer <= 0) {
    int peers = std::max(1, n_hosts_ - 1);
    cfg_.credits_per_peer =
        std::max(2, static_cast<int>(nic.host_ring_slots) / peers);
  }
  credit_return_threshold_ = std::max(1, cfg_.credits_per_peer / 2);
  peers_.assign(n_hosts_, Peer{cfg_.credits_per_peer, 0, 0, nullptr});
  owed_.assign((n_hosts_ + 63) / 64, 0);
}

void Endpoint::register_handler(HandlerId id, HandlerFn fn) {
  handlers_.set(id, std::move(fn));
}

std::size_t Endpoint::active_handlers() const {
  std::size_t n = 0;
  for (const auto& ctx : contexts_) {
    if (ctx->task.valid() && !ctx->task.done()) ++n;
  }
  return n;
}

std::uint16_t Endpoint::take_piggyback(int dest) {
  Peer& p = peers_[dest];
  int v = std::min(p.freed, 0xFFFF);
  p.freed -= v;
  if (p.freed < credit_return_threshold_) {
    owed_[dest >> 6] &= ~(std::uint64_t{1} << (dest & 63));
  }
  return static_cast<std::uint16_t>(v);
}

int Endpoint::next_owed(int from) const {
  std::size_t w = static_cast<std::size_t>(from) >> 6;
  if (w >= owed_.size()) return -1;
  std::uint64_t bits = owed_[w] & (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w == owed_.size()) return -1;
    bits = owed_[w];
  }
  return static_cast<int>(w * 64) + std::countr_zero(bits);
}

sim::Task<SendStream> Endpoint::begin_message(int dest, std::size_t size,
                                              HandlerId handler) {
  auto& host = node_.host();
  // The wire header indexes packets in 16 bits.
  if ((size + seg_ - 1) / seg_ > 0xFFFF) {
    throw std::length_error("FM2: message exceeds 65535 packets");
  }
  host.charge(Cost::kCall, host.params().call_overhead / 2);
  SendStream s(dest, handler, static_cast<std::uint32_t>(size),
               peers_[dest].next_seq++);
  s.trace_id_ = trace::Tracer::msg_id(id(), dest, trace::Layer::kFm2, s.seq_);
  bool fresh = false;
  s.pkt_ = pool().acquire_ref(kHdr + std::min(seg_, size), &fresh);
  if (fresh) host.ledger().note_alloc();
  co_await host.sync();
  co_return s;
}

sim::Task<void> Endpoint::send_piece(SendStream& s, ByteSpan piece) {
  if (s.ended_) throw std::logic_error("FM2: send_piece after end_message");
  if (s.sent_ + piece.size() > s.total_) {
    throw std::logic_error("FM2: message overflows declared size");
  }
  auto& host = node_.host();
  host.charge(Cost::kCall, host.params().call_overhead / 2);
  ++stats_.pieces_sent;
  std::size_t off = 0;
  while (off < piece.size()) {
    std::size_t room = seg_ - s.fill_;
    std::size_t take = std::min(room, piece.size() - off);
    // The gather copy: user piece -> packet under assembly (pinned memory).
    // The stream owns its packet uniquely, so mutable_bytes() never clones.
    host.copy(s.pkt_.mutable_bytes().subspan(kHdr + s.fill_, take),
              piece.subspan(off, take));
    s.fill_ += take;
    s.sent_ += take;
    off += take;
    if (s.fill_ == seg_ && s.sent_ < s.total_) {
      co_await flush_packet(s, /*last=*/false);
    }
  }
}

sim::Task<void> Endpoint::end_message(SendStream& s) {
  if (s.ended_) throw std::logic_error("FM2: double end_message");
  if (s.sent_ != s.total_) {
    throw std::logic_error("FM2: end_message before declared size composed");
  }
  auto& host = node_.host();
  host.charge(Cost::kCall, host.params().call_overhead / 2);
  co_await flush_packet(s, /*last=*/true);
  s.ended_ = true;
  ++stats_.msgs_sent;
}

sim::Task<void> Endpoint::flush_packet(SendStream& s, bool last) {
  auto& host = node_.host();
  PacketHeader h;
  h.type = static_cast<std::uint16_t>(PacketType::kData);
  h.handler = s.handler_;
  h.msg_bytes = s.total_;
  h.pkt_index = s.pkt_index_++;
  h.credits = take_piggyback(s.dest_);
  h.msg_seq = s.seq_;
  s.pkt_.set_size(kHdr + s.fill_);
  wire::store_header(s.pkt_.mutable_bytes(), h);
  host.charge(Cost::kHeader, kHeaderBuildCost);
  ++stats_.packets_sent;
  tracer().record(trace::EventType::kSendEnqueue, trace::Layer::kFm2, id(),
                  s.trace_id_, s.fill_);

  co_await acquire_credit(s.dest_);
  BufferRef out = std::move(s.pkt_);
  s.fill_ = 0;
  if (!last) {
    // Next packet under assembly comes from the pool un-zeroed: send_piece
    // fills every payload byte before the next flush stores the header.
    std::size_t next_payload =
        std::min(seg_, static_cast<std::size_t>(s.total_) - s.sent_);
    bool fresh = false;
    s.pkt_ = pool().acquire_ref(kHdr + next_payload, &fresh);
    if (fresh) host.ledger().note_alloc();
  }
  if (cfg_.pio_send) {
    host.note(Cost::kPio, node_.bus().pio_time(out.size()));
    host.ledger().note_copy(out.size());
    co_await host.sync();
    co_await node_.bus().pio(out.size());
    net::SendDescriptor sd(s.dest_, std::move(out), /*fetch_dma=*/false);
    sd.trace_id = s.trace_id_;
    co_await node_.nic().enqueue(std::move(sd));
  } else {
    co_await host.sync();
    net::SendDescriptor sd(s.dest_, std::move(out), /*fetch_dma=*/true);
    sd.trace_id = s.trace_id_;
    co_await node_.nic().enqueue(std::move(sd));
  }
}

sim::Task<void> Endpoint::acquire_credit(int dest) {
  auto& host = node_.host();
  host.charge(Cost::kFlowCtl, kCreditOpCost);
  if (peers_[dest].credits > 0) {
    --peers_[dest].credits;
    co_return;
  }
  ++stats_.credit_stall_events;
  for (;;) {
    // Hunt for credit returns. Data packets are parked *without* releasing
    // their credits — FM 2.x receiver pacing must not be subverted by a
    // blocked sender.
    int drained = 0;
    while (auto p = node_.nic().host_ring().try_pop()) {
      ++drained;
      apply_credits(*p);
      PacketHeader h = wire::parse_header(p->payload);
      if (static_cast<PacketType>(h.type) == PacketType::kCredit) {
        p->payload.reset();
        continue;
      }
      if (pending_.size() >= kPendingLimit) {
        throw std::runtime_error("FM2: pending buffer overflow");
      }
      pending_.push_back(std::move(*p));
    }
    if (drained > 0) node_.nic().host_ring().poke();
    if (peers_[dest].credits > 0) {
      --peers_[dest].credits;
      co_return;
    }
    host.charge(Cost::kFlowCtl, host.params().poll_gap);
    co_await host.sync();
    co_await node_.nic().host_ring().wait_nonempty();
  }
}

sim::Task<void> Endpoint::return_credits(int dest) {
  std::uint16_t give = take_piggyback(dest);
  assert(give > 0);
  ++stats_.credit_packets_sent;
  PacketHeader h;
  h.type = static_cast<std::uint16_t>(PacketType::kCredit);
  h.credits = give;
  auto& host = node_.host();
  bool fresh = false;
  BufferRef pkt = pool().acquire_ref(kHdr, &fresh);
  if (fresh) host.ledger().note_alloc();
  wire::store_header(pkt.mutable_bytes(), h);
  host.charge(Cost::kFlowCtl, kHeaderBuildCost);
  co_await host.sync();
  co_await node_.nic().enqueue(
      net::SendDescriptor(dest, std::move(pkt), !cfg_.pio_send));
}

// ---------------------------------------------------------------------------
// Endpoint: receive side

// Harvest piggybacked credits exactly once per packet. The "applied" flag
// on the RxPacket replaces the old strip-by-rewrite: rewriting the header
// would copy-on-write-clone every parked packet whose block is shared with
// the sender's go-back-N retention, for no modeled benefit.
void Endpoint::apply_credits(net::RxPacket& pkt) {
  if (pkt.credits_applied) return;
  pkt.credits_applied = true;
  PacketHeader h = wire::parse_header(pkt.payload);
  if (h.credits > 0) {
    node_.host().charge(Cost::kFlowCtl, kCreditOpCost);
    peers_[pkt.src].credits += h.credits;
  }
}

void Endpoint::start_message(Peer& peer, int src, const PacketHeader& h) {
  if (h.pkt_index != 0) {
    throw std::runtime_error("FM2: message began mid-stream (order breach)");
  }
  MsgContext* ctx;
  if (free_ctx_.empty()) {
    contexts_.push_back(std::make_unique<MsgContext>(this));
    free_ctx_.reserve(contexts_.size());
    ctx = contexts_.back().get();
  } else {
    ctx = free_ctx_.back();
    free_ctx_.pop_back();
  }
  ctx->reset(src, h.msg_bytes, h.msg_seq, h.handler);
  ctx->stream.trace_id_ =
      trace::Tracer::msg_id(src, id(), trace::Layer::kFm2, h.msg_seq);
  peer.current = ctx;
  const HandlerFn* fn = handlers_.find(h.handler);
  if (fn == nullptr) {
    // No handler registered: consume-and-drop semantics.
    ctx->skip_rest = true;
    return;
  }
  if (!cfg_.whole_message_handlers) run_handler(*ctx, *fn, src);
}

void Endpoint::run_handler(MsgContext& ctx, const HandlerFn& fn, int src) {
  node_.host().charge(Cost::kDispatch, node_.host().params().handler_dispatch);
  ctx.task = fn(ctx.stream, src);
  ++stats_.handler_starts;
  tracer().record(trace::EventType::kHandlerRun, trace::Layer::kFm2, id(),
                  ctx.stream.trace_id_, ctx.stream.available());
  ctx.task.resume();  // runs until first unfulfillable receive
}

void Endpoint::pump(Peer& peer, int src, int* completed) {
  while (peer.current) {
    MsgContext& ctx = *peer.current;
    RecvStream& sstr = ctx.stream;

    // Whole-message ablation: start the handler only once fully arrived.
    if (!ctx.task.valid() && !ctx.skip_rest) {
      if (sstr.fed_ < sstr.msg_bytes_) return;
      if (const HandlerFn* fn = handlers_.find(ctx.handler_id)) {
        run_handler(ctx, *fn, src);
      } else {
        ctx.skip_rest = true;
      }
    }

    // Resume the handler while its pending request can be satisfied.
    while (ctx.task.valid() && !ctx.task.done() && sstr.waiting_ &&
           sstr.try_fulfill()) {
      auto h = sstr.waiting_;
      sstr.waiting_ = {};
      node_.host().charge(Cost::kDispatch, kResumeCost);
      ++stats_.handler_resumes;
      tracer().record(trace::EventType::kHandlerRun, trace::Layer::kFm2,
                      id(), sstr.trace_id_, sstr.available());
      h.resume();
    }

    if (ctx.task.valid() && ctx.task.done()) {
      if (auto err = ctx.task.error()) std::rethrow_exception(err);
      if (sstr.remaining() > 0) ctx.skip_rest = true;
    }
    if (ctx.skip_rest) sstr.discard_all_queued();

    bool handler_finished =
        (!ctx.task.valid() && ctx.skip_rest) ||
        (ctx.task.valid() && ctx.task.done());
    bool all_consumed = sstr.consumed_ == sstr.msg_bytes_ &&
                        sstr.fed_ == sstr.msg_bytes_;
    if (!(handler_finished && all_consumed)) return;

    // Retire the message: its handler frame goes back to the frame pool
    // and its context to the free list. The backlog stays with the source,
    // so it moves out first (a pointer swap) and into the next message's
    // context.
    ++*completed;
    ++stats_.msgs_received;
    stats_.bytes_received += sstr.msg_bytes_;
    tracer().record(trace::EventType::kMsgDone, trace::Layer::kFm2, id(),
                    sstr.trace_id_, sstr.msg_bytes_);
    ctx.task = HandlerTask{};
    peer.current = nullptr;
    free_ctx_.push_back(&ctx);
    if (ctx.backlog.empty()) return;
    sim::RingQueue<net::RxPacket> backlog = std::move(ctx.backlog);
    net::RxPacket first = backlog.take_front();
    start_message(peer, src, wire::parse_header(first.payload));
    peer.current->stream.feed(std::move(first));
    // Feed the rest of the backlog that belongs to this message.
    while (!backlog.empty()) {
      PacketHeader h = wire::parse_header(backlog.front().payload);
      if (h.msg_seq != peer.current->stream.seq_) break;
      peer.current->stream.feed(backlog.take_front());
    }
    peer.current->backlog = std::move(backlog);
  }
}

void Endpoint::ingest(net::RxPacket&& pkt, int* completed) {
  auto& host = node_.host();
  host.charge(Cost::kHeader, kHeaderParseCost);
  apply_credits(pkt);
  PacketHeader h = wire::parse_header(pkt.payload);
  if (static_cast<PacketType>(h.type) == PacketType::kCredit) {
    pkt.payload.reset();
    return;
  }

  int src = pkt.src;
  Peer& peer = peers_[src];
  if (!peer.current) {
    start_message(peer, src, h);
    peer.current->stream.feed(std::move(pkt));
  } else if (h.msg_seq == peer.current->stream.seq_) {
    peer.current->stream.feed(std::move(pkt));
  } else {
    peer.current->backlog.push_back(std::move(pkt));
    return;  // future message; nothing to pump yet
  }
  pump(peer, src, completed);
}

sim::Task<int> Endpoint::extract(std::size_t budget) {
  auto& host = node_.host();
  host.charge(Cost::kCall, host.params().poll_gap);
  int completed = 0;

  // In whole-message ablation mode, handler starts are deferred; a started
  // message may also be waiting for backlogged packets.
  auto charge_budget = [&](std::size_t data_bytes) {
    budget = data_bytes >= budget ? 0 : budget - data_bytes;
  };

  int processed = 0;
  while (!pending_.empty() && budget > 0) {
    net::RxPacket pkt = pending_.take_front();
    charge_budget(pkt.payload.size() - kHdr);
    ingest(std::move(pkt), &completed);
    ++processed;
  }
  while (budget > 0) {
    auto p = node_.nic().host_ring().try_pop();
    if (!p) break;
    charge_budget(p->payload.size() - kHdr);
    ingest(std::move(*p), &completed);
    ++processed;
  }
  // Our extraction may have satisfied another poller's condition (several
  // libraries can poll one endpoint): let sleepers re-check.
  if (processed > 0) node_.nic().host_ring().poke();
  if (completed > 0) {
    tracer().record(trace::EventType::kExtract, trace::Layer::kFm2, id(), 0,
                    static_cast<std::uint64_t>(completed));
  }

  co_await host.sync();
  // Ascending peer order, resumed past each peer served: while a credit
  // packet's sync is suspended another poller may free slots, and peers
  // owed by then are picked up only if they lie ahead of the cursor.
  for (int peer = next_owed(0); peer >= 0; peer = next_owed(peer + 1)) {
    co_await return_credits(peer);
  }
  while (!deferred_.empty()) {
    auto op = deferred_.take_front();
    co_await op();
  }
  co_return completed;
}

// ---------------------------------------------------------------------------
// RDMA rendezvous extension

Endpoint::RdmaBuffer Endpoint::post_rdma_buffer(
    MutByteSpan dst, std::function<void()> on_complete) {
  auto& host = node_.host();
  // Register the simulated address (Host::sim_addr), not the raw pointer:
  // pin costs are page-granular and must not depend on the test process's
  // heap layout.
  net::RegCache::Acquire a = host.reg_cache().acquire(
      host.sim_addr(dst.data(), dst.size()), dst.size());
  host.charge(Cost::kBufferMgmt, a.cost);
  RdmaBuffer b;
  b.mr = a.handle;
  b.rkey = node_.nic().post_rdma_target(dst, std::move(on_complete));
  return b;
}

sim::Task<Endpoint::RdmaOp> Endpoint::rdma_write(int dest, std::uint32_t rkey,
                                                 ByteSpan src) {
  assert(!src.empty());
  auto& host = node_.host();
  net::RegCache::Acquire a = host.reg_cache().acquire(
      host.sim_addr(src.data(), src.size()), src.size());
  host.charge(Cost::kBufferMgmt, a.cost);
  host.charge(Cost::kCall, host.params().call_overhead);
  RdmaOp op;
  op.mr = a.handle;
  // The zero-copy heart of the path: the wire packets' payloads are
  // subslices of this borrowed ref, reading the caller's bytes in place.
  op.ref = BufferRef::borrow(src);
  co_await host.sync();
  const std::size_t mtu = node_.nic().params().mtu_payload;
  for (std::size_t off = 0; off < src.size(); off += mtu) {
    const std::size_t n = std::min(mtu, src.size() - off);
    net::SendDescriptor sd(dest, op.ref.subslice(off, n), /*fetch_dma=*/true);
    sd.kind = net::PacketKind::kRdmaWrite;
    sd.rkey = rkey;
    sd.rdma_offset = static_cast<std::uint32_t>(off);
    sd.trace_id = trace::Tracer::msg_id(id(), dest, trace::Layer::kNic, rkey);
    co_await node_.nic().enqueue(std::move(sd));
  }
  co_return op;
}

// ---------------------------------------------------------------------------
// Convenience

sim::Task<void> Endpoint::send(int dest, HandlerId handler, ByteSpan data) {
  SendStream s = co_await begin_message(dest, data.size(), handler);
  co_await send_piece(s, data);
  co_await end_message(s);
}

sim::Task<void> Endpoint::send_gather(int dest, HandlerId handler,
                                      std::span<const ByteSpan> pieces) {
  std::size_t total = 0;
  for (const auto& p : pieces) total += p.size();
  SendStream s = co_await begin_message(dest, total, handler);
  for (const auto& p : pieces) co_await send_piece(s, p);
  co_await end_message(s);
}

sim::Task<void> Endpoint::wait_for_traffic() {
  if (node_.nic().host_ring().empty() && pending_.empty()) {
    co_await node_.nic().host_ring().wait_nonempty();
  }
}

// --- NIC-offloaded collectives ---------------------------------------------

// Submit one operation to the NIC collective engine and poll until its
// completion callback fires. The poll loop keeps extracting, so unrelated
// point-to-point traffic continues to drain — but a pure collective phase
// starts zero handlers: interior tree steps never touch the host.
// Stage a local operand into a pool-backed buffer the NIC DMA-fetches —
// the "pinned descriptor area" write. Pool hits make this allocation-free
// in steady state; the memcpy is real, charged, and counted.
BufferRef Endpoint::stage_contrib(ByteSpan src) {
  BufferRef staged = pool().acquire_ref(src.size());
  if (!src.empty()) node_.host().copy(staged.mutable_bytes(), src);
  return staged;
}

sim::Task<void> Endpoint::coll_run(std::uint32_t group, net::Nic::CollSubmit s) {
  auto& host = node_.host();
  // One descriptor write into the NIC's submission area (PIO-sized).
  host.charge(Cost::kCall, host.params().call_overhead);
  host.charge(Cost::kPio, host.params().call_overhead);
  co_await host.sync();
  bool done = false;
  s.on_complete = [&done] { done = true; };
  node_.nic().coll_submit(group, std::move(s));
  co_await poll_until([&done] { return done; });
}

sim::Task<void> Endpoint::coll_join(const net::CollGroupSpec& spec) {
  node_.nic().coll_create(spec);
  net::Nic::CollSubmit s;
  s.op = net::CollOp::kJoin;
  co_await coll_run(spec.id, std::move(s));
}

sim::Task<void> Endpoint::coll_barrier(std::uint32_t group) {
  net::Nic::CollSubmit s;
  s.op = net::CollOp::kBarrier;
  co_await coll_run(group, std::move(s));
}

sim::Task<void> Endpoint::coll_bcast(std::uint32_t group, MutByteSpan buf) {
  net::Nic::CollSubmit s;
  s.op = net::CollOp::kBcast;
  if (node_.nic().coll_tree_of(group).parent < 0) {
    // Root: stage the payload into a pool-backed descriptor buffer the NIC
    // fetches (pool hits keep steady-state ops allocation-free).
    s.contrib = stage_contrib(ByteSpan{buf.data(), buf.size()});
  } else {
    s.result = buf;
  }
  co_await coll_run(group, std::move(s));
}

sim::Task<void> Endpoint::coll_reduce(std::uint32_t group,
                                      std::span<double> data, CollRed red) {
  net::Nic::CollSubmit s;
  s.op = red == CollRed::kMax ? net::CollOp::kReduceMax
                              : net::CollOp::kReduceSum;
  s.contrib = stage_contrib(std::as_bytes(data));
  if (node_.nic().coll_tree_of(group).parent < 0)
    s.result = std::as_writable_bytes(data);
  co_await coll_run(group, std::move(s));
}

sim::Task<void> Endpoint::coll_allreduce(std::uint32_t group,
                                         std::span<double> data,
                                         CollRed red) {
  net::Nic::CollSubmit s;
  s.op = red == CollRed::kMax ? net::CollOp::kAllreduceMax
                              : net::CollOp::kAllreduceSum;
  s.contrib = stage_contrib(std::as_bytes(data));
  s.result = std::as_writable_bytes(data);
  co_await coll_run(group, std::move(s));
}

sim::Task<void> Endpoint::poll_until(const std::function<bool()>& done) {
  auto& host = node_.host();
  while (!done()) {
    (void)co_await extract();
    if (done()) break;
    host.charge(Cost::kCall, host.params().poll_gap);
    co_await host.sync();
    if (node_.nic().host_ring().empty() && pending_.empty()) {
      co_await node_.nic().host_ring().wait_nonempty();
    }
  }
}

}  // namespace fmx::fm2
