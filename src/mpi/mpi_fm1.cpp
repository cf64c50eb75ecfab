#include "mpi/mpi_fm1.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>

namespace fmx::mpi {

using sim::Cost;

namespace {
// MPICH-layer costs on the SPARCstation-class host.
constexpr sim::Ps kMpiCallCost = sim::ns(1'200);
constexpr sim::Ps kMatchCost = sim::ns(800);
constexpr sim::Ps kTempAllocCost = sim::ns(1'500);  // pool/malloc management
constexpr sim::Ps kRequestCost = sim::ns(500);
}  // namespace

MpiFm1::MpiFm1(fm1::Endpoint& fm) : fm_(fm) {
  fm_.register_handler(kMpiHandler,
                       [this](int src, ByteSpan d) { on_message(src, d); });
}

void MpiFm1::complete(RequestState& st, int src, int tag,
                      std::size_t count) {
  st.done = true;
  st.status.source = src;
  st.status.tag = tag;
  st.status.count = count;
}

sim::Task<void> MpiFm1::do_send(ByteSpan data, int dst, int tag) {
  auto& host = fm_.host();
  host.charge(Cost::kCall, kMpiCallCost);
  ++stats_.sends;

  MpiHeader h;
  h.tag = tag;
  h.src_rank = rank();
  h.bytes = static_cast<std::uint32_t>(data.size());
  h.seq = send_seq_++;

  // FM 1.x takes one contiguous buffer: assemble header + payload in a
  // staging buffer (the send-side copy the paper calls out).
  Bytes staging(sizeof(MpiHeader) + data.size());
  std::memcpy(staging.data(), &h, sizeof(h));
  host.charge(Cost::kHeader, sim::ns(200));
  if (!data.empty()) {
    host.copy(MutByteSpan{staging}.subspan(sizeof(MpiHeader)), data);
  }
  co_await fm_.send(dst, kMpiHandler, ByteSpan{staging});
}

void MpiFm1::on_message(int /*fm_src*/, ByteSpan data) {
  auto& host = fm_.host();
  MpiHeader h;
  std::memcpy(&h, data.data(), sizeof(h));
  host.charge(Cost::kHeader, sim::ns(200));
  ByteSpan payload = data.subspan(sizeof(MpiHeader));

  // The FM 1.x handler cannot reach the posted user buffer; it must take
  // ownership before FM reclaims its buffer: copy into an MPI temporary.
  host.charge(Cost::kBufferMgmt, kTempAllocCost);
  Bytes temp(payload.size());
  if (!payload.empty()) host.copy(MutByteSpan{temp}, payload);

  host.charge(Cost::kMatch, kMatchCost);
  if (auto pr = matcher_.claim_posted(h.src_rank, h.tag)) {
    if (temp.size() > pr->cap) {
      throw std::runtime_error("MPI: message truncation (buffer too small)");
    }
    if (!temp.empty()) {
      host.copy(MutByteSpan{pr->buf, temp.size()}, ByteSpan{temp});
    }
    ++stats_.posted_hits;
    ++stats_.recvs;
    complete(*pr->req, h.src_rank, h.tag, temp.size());
  } else {
    ++stats_.unexpected;
    matcher_.add_unexpected(UnexpectedMsg(h.src_rank, h.tag,
                                          std::move(temp)));
  }
}

sim::Task<Request> MpiFm1::do_post_recv(MutByteSpan buf, int src, int tag) {
  auto& host = fm_.host();
  host.charge(Cost::kCall, kMpiCallCost);
  host.charge(Cost::kMatch, kMatchCost);
  host.charge(Cost::kBufferMgmt, kRequestCost);
  auto st = std::make_shared<RequestState>();
  PostedRecv pr(buf.data(), buf.size(), src, tag, st);
  if (auto um = matcher_.post(std::move(pr))) {
    if (um->data.size() > buf.size()) {
      throw std::runtime_error("MPI: message truncation (buffer too small)");
    }
    if (!um->data.empty()) {
      host.copy(MutByteSpan{buf.data(), um->data.size()},
                ByteSpan{um->data});
    }
    ++stats_.recvs;
    complete(*st, um->src, um->tag, um->data.size());
  }
  co_await host.sync();
  co_return Request(st);
}

sim::Task<void> MpiFm1::progress_until(std::function<bool()> done) {
  co_await fm_.poll_until(done);
}

sim::Task<void> MpiFm1::progress_once() { (void)co_await fm_.extract(); }

std::optional<Status> MpiFm1::peek_unexpected(int src, int tag) {
  fm_.host().charge(sim::Cost::kMatch, kMatchCost);
  if (const UnexpectedMsg* u = matcher_.peek_unexpected(src, tag)) {
    return Status{u->src, u->tag, u->data.size()};
  }
  return std::nullopt;
}

}  // namespace fmx::mpi
