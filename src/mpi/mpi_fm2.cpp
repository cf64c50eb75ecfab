#include "mpi/mpi_fm2.hpp"

#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>

namespace fmx::mpi {

using sim::Cost;

namespace {
// MPICH-layer costs on the 200 MHz Pentium Pro host.
constexpr sim::Ps kMpiCallCost = sim::ns(400);
constexpr sim::Ps kMatchCost = sim::ns(500);
constexpr sim::Ps kUnexpectedAllocCost = sim::ns(1'000);
constexpr sim::Ps kRequestCost = sim::ns(300);
// Progress-engine work per continuation packet of a multi-packet message
// (MPICH ADI request-state walk on each arriving chunk).
constexpr sim::Ps kAdiChunkCost = sim::ns(2'500);

// MpiHeader.kind values.
constexpr std::uint16_t kEager = 0;
constexpr std::uint16_t kRts = 1;
constexpr std::uint16_t kCts = 2;
constexpr std::uint16_t kRdzvData = 3;
constexpr std::uint16_t kRdzvDone = 4;

// MpiHeader.flags bits.
/// RTS: sender can source the payload by RDMA. CTS: receiver granted it
/// (the CTS `bytes` field then carries the rkey).
constexpr std::uint16_t kFlagRdma = 0x1;

/// Poll period while a sender waits for its borrowed payload references to
/// drain after the DONE (normally zero iterations: the piggybacked ack on
/// the DONE's reverse traffic has already cleared the NIC retention).
constexpr sim::Ps kRdmaDrainPoll = sim::us(1);

std::uint64_t rdzv_key(int src, std::uint64_t id) {
  return (static_cast<std::uint64_t>(src) << 48) ^ id;
}
}  // namespace

MpiFm2::MpiFm2(fm2::Endpoint& fm, MpiFm2Options opt) : fm_(fm), opt_(opt) {
  fm_.register_handler(kMpiHandler,
                       [this](fm2::RecvStream& s, int src) {
                         return on_message(s, src);
                       });
}

void MpiFm2::complete(RequestState& st, int src, int tag,
                      std::size_t count) {
  st.done = true;
  st.status.source = src;
  st.status.tag = tag;
  st.status.count = count;
}

sim::Task<void> MpiFm2::do_send(ByteSpan data, int dst, int tag) {
  auto& host = fm_.host();
  host.charge(Cost::kCall, kMpiCallCost);
  ++stats_.sends;

  MpiHeader h;
  h.tag = tag;
  h.src_rank = rank();
  h.bytes = static_cast<std::uint32_t>(data.size());
  h.seq = send_seq_++;
  host.charge(Cost::kHeader, sim::ns(200));

  if (data.size() > opt_.eager_threshold) {
    // Rendezvous: ship only the envelope, wait for the receiver to grant
    // a buffer, then move the payload straight into it — by RDMA remote
    // write when both sides negotiated it, else via the FM stream path.
    const std::uint64_t id = h.seq;
    rdzv_sends_[id];
    MpiHeader rts = h;
    rts.kind = kRts;
    if (opt_.rdma && !data.empty()) rts.flags |= kFlagRdma;
    co_await fm_.send(dst, kMpiHandler, as_bytes_of(rts));
    co_await progress_until(
        [this, id] { return rdzv_sends_.at(id).cts; });
    const bool use_rdma = rdzv_sends_.at(id).use_rdma;
    const std::uint32_t rkey = rdzv_sends_.at(id).rkey;
    if (use_rdma) {
      fm2::Endpoint::RdmaOp op = co_await fm_.rdma_write(dst, rkey, data);
      // The receiver's NIC reports completion out of band (DONE control
      // message) once every chunk has been placed in the posted buffer.
      co_await progress_until(
          [this, id] { return rdzv_sends_.at(id).done; });
      rdzv_sends_.erase(id);
      // Pin-down contract: the user may modify `data` as soon as we
      // return, so wait until no in-flight reference (NIC staging, wire,
      // go-back-N retention) still aliases it. The DONE's piggybacked ack
      // normally cleared the retention already, making this zero polls.
      while (op.ref.use_count() > 1) {
        co_await fm_.host().engine().delay(kRdmaDrainPoll);
      }
      fm_.release_rdma(op.mr);
      co_return;
    }
    rdzv_sends_.erase(id);
    MpiHeader dat = h;
    dat.kind = kRdzvData;
    fm2::SendStream s = co_await fm_.begin_message(
        dst, sizeof(MpiHeader) + data.size(), kMpiHandler);
    co_await fm_.send_piece(s, as_bytes_of(dat));
    co_await fm_.send_piece(s, data);
    co_await fm_.end_message(s);
    co_return;
  }

  if (opt_.staged_send) {
    // Ablation: FM 1.x-style contiguous assembly before handing to FM —
    // one extra full-message copy on the send path. The simulated machine
    // pays that staging copy (charge_copy), but the simulator itself no
    // longer materializes a second buffer: the header rides as a slice
    // view through the same gather path the staging copy would feed.
    host.charge_copy(data.size());
    fm2::SendStream s = co_await fm_.begin_message(
        dst, sizeof(MpiHeader) + data.size(), kMpiHandler);
    co_await fm_.send_piece(s, as_bytes_of(h));
    if (!data.empty()) co_await fm_.send_piece(s, data);
    co_await fm_.end_message(s);
    co_return;
  }

  // Gather: header and payload are two pieces of one FM message. FM's
  // packetizer copies each piece into the outgoing packet; no MPI staging.
  fm2::SendStream s =
      co_await fm_.begin_message(dst, sizeof(MpiHeader) + data.size(),
                                 kMpiHandler);
  co_await fm_.send_piece(s, as_bytes_of(h));
  if (!data.empty()) co_await fm_.send_piece(s, data);
  co_await fm_.end_message(s);
}

MpiHeader MpiFm2::grant_rts(int src, std::uint64_t id, int tag,
                            std::size_t bytes, std::byte* buf,
                            std::shared_ptr<RequestState> req,
                            bool sender_rdma) {
  const std::uint64_t key = rdzv_key(src, id);
  RdzvRecv& rec = rdzv_recvs_[key];
  rec.req = std::move(req);
  rec.buf = buf;
  rec.src = src;
  rec.tag = tag;
  rec.bytes = bytes;
  rec.id = id;

  MpiHeader cts;
  cts.kind = kCts;
  cts.seq = id;
  cts.src_rank = rank();
  if (opt_.rdma && sender_rdma && bytes > 0) {
    // Pin the posted buffer, hand it to the NIC as a remote-write target,
    // and advertise the rkey in the CTS. The NIC calls back when the last
    // byte lands; the host never copies the payload.
    fm2::Endpoint::RdmaBuffer rb = fm_.post_rdma_buffer(
        MutByteSpan{buf, bytes}, [this, key] { on_rdma_complete(key); });
    rec.mr = rb.mr;
    cts.flags |= kFlagRdma;
    cts.bytes = rb.rkey;
  }
  return cts;
}

// Runs on the NIC (rx DMA program) the moment the last RDMA chunk is
// placed: complete the posted receive, unpin, and queue the DONE control
// message back to the sender. Only bookkeeping here — the DONE send is a
// fresh daemon because this is not a host coroutine context.
void MpiFm2::on_rdma_complete(std::uint64_t key) {
  auto it = rdzv_recvs_.find(key);
  if (it == rdzv_recvs_.end()) return;
  RdzvRecv rec = std::move(it->second);
  rdzv_recvs_.erase(it);
  fm_.host().charge(Cost::kBufferMgmt, kRequestCost);
  fm_.release_rdma(rec.mr);
  ++stats_.recvs;
  complete(*rec.req, rec.src, rec.tag, rec.bytes);
  MpiHeader done;
  done.kind = kRdzvDone;
  done.seq = rec.id;
  done.src_rank = rank();
  fm_.host().engine().spawn_daemon(send_control(rec.src, done));
}

sim::Task<void> MpiFm2::send_control(int to, MpiHeader h) {
  co_await fm_.send(to, kMpiHandler, as_bytes_of(h));
}

fm2::HandlerTask MpiFm2::on_message(fm2::RecvStream& s, int /*src*/) {
  auto& host = fm_.host();
  MpiHeader h;
  co_await s.receive(&h, sizeof(h));

  if (h.kind == kRts) {
    host.charge(Cost::kMatch, kMatchCost);
    if (auto pr = matcher_.claim_posted(h.src_rank, h.tag)) {
      if (h.bytes > pr->cap) {
        throw std::runtime_error(
            "MPI: message truncation (buffer too small)");
      }
      fm_.tracer().record(trace::EventType::kMatch, trace::Layer::kMpi,
                          fm_.id(), s.trace_id(), h.bytes);
      MpiHeader cts = grant_rts(h.src_rank, h.seq, h.tag, h.bytes, pr->buf,
                                pr->req, (h.flags & kFlagRdma) != 0);
      int to = h.src_rank;
      fm_.defer([this, to, cts]() -> sim::Task<void> {
        co_await fm_.send(to, kMpiHandler, as_bytes_of(cts));
      });
    } else {
      // Unexpected RTS: queue the 24-byte envelope — no payload staging,
      // the whole point of rendezvous.
      auto ua = std::make_shared<UnexpectedArrival>();
      ua->src = h.src_rank;
      ua->tag = h.tag;
      ua->is_rts = true;
      ua->rts_id = h.seq;
      ua->rts_bytes = h.bytes;
      ua->rts_rdma = (h.flags & kFlagRdma) != 0;
      unexpected_.push_back(ua);
      ++stats_.unexpected;
    }
    co_return;
  }
  if (h.kind == kCts) {
    PendingRdzvSend& ps = rdzv_sends_.at(h.seq);
    ps.use_rdma = (h.flags & kFlagRdma) != 0;
    ps.rkey = h.bytes;  // CTS reuses the length field for the rkey
    ps.cts = true;
    co_return;
  }
  if (h.kind == kRdzvDone) {
    rdzv_sends_.at(h.seq).done = true;
    co_return;
  }
  if (h.kind == kRdzvData) {
    auto it = rdzv_recvs_.find(rdzv_key(h.src_rank, h.seq));
    RdzvRecv rec = std::move(it->second);
    rdzv_recvs_.erase(it);
    fm_.tracer().record(trace::EventType::kMatch, trace::Layer::kMpi,
                        fm_.id(), s.trace_id(), h.bytes);
    const std::size_t chunk = fm_.max_payload_per_packet();
    std::size_t off = 0;
    while (off < h.bytes) {
      std::size_t take = std::min<std::size_t>(chunk, h.bytes - off);
      if (off > 0) host.charge(Cost::kMatch, kAdiChunkCost);
      co_await s.receive(rec.buf + off, take);
      off += take;
    }
    ++stats_.recvs;
    complete(*rec.req, rec.src, rec.tag, h.bytes);
    co_return;
  }

  // Layer interleaving: with the header in hand, ask MPI where the payload
  // belongs, then steer it there straight from the stream.
  host.charge(Cost::kMatch, kMatchCost);
  host.charge(Cost::kBufferMgmt, kRequestCost);
  if (auto pr = matcher_.claim_posted(h.src_rank, h.tag)) {
    if (h.bytes > pr->cap) {
      throw std::runtime_error("MPI: message truncation (buffer too small)");
    }
    fm_.tracer().record(trace::EventType::kMatch, trace::Layer::kMpi,
                        fm_.id(), s.trace_id(), h.bytes);
    // Pull the payload from the stream a packet-chunk at a time; each
    // continuation chunk passes through the ADI progress engine.
    const std::size_t chunk = fm_.max_payload_per_packet();
    std::size_t off = 0;
    while (off < h.bytes) {
      std::size_t take = std::min<std::size_t>(chunk, h.bytes - off);
      if (off > 0) host.charge(Cost::kMatch, kAdiChunkCost);
      co_await s.receive(pr->buf + off, take);
      off += take;
    }
    ++stats_.posted_hits;
    ++stats_.recvs;
    complete(*pr->req, h.src_rank, h.tag, h.bytes);
  } else {
    // Truly unexpected: one buffering copy, the unavoidable case. The
    // envelope is published *before* the payload finishes streaming in, so
    // a receive posted meanwhile matches this message, not a later one.
    host.charge(Cost::kBufferMgmt, kUnexpectedAllocCost);
    auto ua = std::make_shared<UnexpectedArrival>();
    ua->src = h.src_rank;
    ua->tag = h.tag;
    ua->data.resize(h.bytes);
    unexpected_.push_back(ua);
    ++stats_.unexpected;
    if (h.bytes > 0) co_await s.receive(MutByteSpan{ua->data});
    ua->complete = true;
    if (ua->claimed) finish_unexpected(ua);
  }
}

void MpiFm2::finish_unexpected(
    const std::shared_ptr<UnexpectedArrival>& ua) {
  auto& host = fm_.host();
  if (ua->data.size() > ua->user_cap) {
    throw std::runtime_error("MPI: message truncation (buffer too small)");
  }
  if (!ua->data.empty()) {
    host.copy(MutByteSpan{ua->user_buf, ua->data.size()},
              ByteSpan{ua->data});
  }
  ++stats_.recvs;
  complete(*ua->claimed, ua->src, ua->tag, ua->data.size());
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->get() == ua.get()) {
      unexpected_.erase(it);
      break;
    }
  }
}

sim::Task<Request> MpiFm2::do_post_recv(MutByteSpan buf, int src, int tag) {
  auto& host = fm_.host();
  host.charge(Cost::kCall, kMpiCallCost);
  host.charge(Cost::kMatch, kMatchCost);
  host.charge(Cost::kBufferMgmt, kRequestCost);
  auto st = std::make_shared<RequestState>();
  // Unexpected arrivals (complete, still streaming, or RTS envelopes)
  // match first, in arrival order.
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    auto ua = *it;
    if (ua->claimed) continue;  // already paired with an earlier recv
    if (!matches(src, tag, ua->src, ua->tag)) continue;
    if (ua->is_rts) {
      if (ua->rts_bytes > buf.size()) {
        throw std::runtime_error(
            "MPI: message truncation (buffer too small)");
      }
      MpiHeader cts = grant_rts(ua->src, ua->rts_id, ua->tag, ua->rts_bytes,
                                buf.data(), st, ua->rts_rdma);
      int to = ua->src;
      unexpected_.erase(it);
      co_await host.sync();
      co_await fm_.send(to, kMpiHandler, as_bytes_of(cts));
      co_return Request(st);
    }
    ua->claimed = st;
    ua->user_buf = buf.data();
    ua->user_cap = buf.size();
    if (ua->complete) {
      finish_unexpected(ua);
    }
    co_await host.sync();
    co_return Request(st);
  }
  matcher_.post(PostedRecv(buf.data(), buf.size(), src, tag, st));
  co_await host.sync();
  co_return Request(st);
}

sim::Task<void> MpiFm2::progress_until(std::function<bool()> done) {
  auto& host = fm_.host();
  while (!done()) {
    (void)co_await fm_.extract();
    if (done()) break;
    host.charge(Cost::kCall, host.params().poll_gap);
    co_await host.sync();
    co_await fm_.wait_for_traffic();
  }
}

std::optional<Status> MpiFm2::peek_unexpected(int src, int tag) {
  fm_.host().charge(Cost::kMatch, kMatchCost);
  for (const auto& ua : unexpected_) {
    if (ua->claimed) continue;
    if (!matches(src, tag, ua->src, ua->tag)) continue;
    // UnexpectedArrival::data is sized to the full message up front, so
    // its size is the final count even while the payload is streaming in;
    // RTS entries carry the size in the envelope.
    return Status{ua->src, ua->tag,
                  ua->is_rts ? ua->rts_bytes : ua->data.size()};
  }
  return std::nullopt;
}

sim::Task<void> MpiFm2::progress_once() {
  (void)co_await fm_.extract();
}

// --- NIC-offloaded collectives ---------------------------------------------

sim::Task<void> MpiFm2::ensure_coll_group() {
  if (coll_joined_) co_return;
  net::CollGroupSpec spec;
  spec.id = kCollGroupId;
  spec.members.resize(static_cast<std::size_t>(size()));
  std::iota(spec.members.begin(), spec.members.end(), 0);
  spec.radix = opt_.coll_radix;
  spec.max_bytes = kCollMaxBytes;
  co_await fm_.coll_join(spec);
  coll_joined_ = true;
}

sim::Task<void> MpiFm2::barrier() {
  if (!use_nic_coll(0, 0)) {
    co_await Comm::barrier();
    co_return;
  }
  co_await ensure_coll_group();
  co_await fm_.coll_barrier(kCollGroupId);
}

sim::Task<void> MpiFm2::bcast(MutByteSpan buf, int root) {
  if (!use_nic_coll(root, buf.size())) {
    co_await Comm::bcast(buf, root);
    co_return;
  }
  co_await ensure_coll_group();
  co_await fm_.coll_bcast(kCollGroupId, buf);
}

sim::Task<void> MpiFm2::reduce_sum(std::span<double> data, int root) {
  if (!use_nic_coll(root, data.size_bytes())) {
    co_await Comm::reduce_sum(data, root);
    co_return;
  }
  co_await ensure_coll_group();
  co_await fm_.coll_reduce(kCollGroupId, data, fm2::Endpoint::CollRed::kSum);
}

sim::Task<void> MpiFm2::allreduce_sum(std::span<double> data) {
  if (!use_nic_coll(0, data.size_bytes())) {
    co_await Comm::allreduce_sum(data);
    co_return;
  }
  co_await ensure_coll_group();
  co_await fm_.coll_allreduce(kCollGroupId, data,
                              fm2::Endpoint::CollRed::kSum);
}

}  // namespace fmx::mpi
