#include "shmem/shmem.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace fmx::shmem {

using sim::Cost;

ShmemCtx::ShmemCtx(fm2::Endpoint& ep) : ep_(ep), heap_(kHeapBytes) {
  ep_.register_handler(kShmemHandler, [this](fm2::RecvStream& s, int src) {
    return on_message(s, src);
  });
}

sim::Task<void> ShmemCtx::send_header_only(int pe, const Header& h) {
  co_await ep_.send(pe, kShmemHandler, as_bytes_of(h));
}

sim::Task<void> ShmemCtx::put(int pe, std::size_t dst_off, ByteSpan src) {
  if (dst_off + src.size() > heap_.size()) {
    throw std::out_of_range("shmem: put beyond heap");
  }
  auto& host = ep_.host();
  host.charge(Cost::kCall, sim::ns(300));
  ++stats_.puts;
  ++puts_issued_;
  Header h;
  h.op = static_cast<std::uint16_t>(Op::kPut);
  h.bytes = static_cast<std::uint32_t>(src.size());
  h.offset = dst_off;
  const ByteSpan pieces[] = {as_bytes_of(h), src};
  co_await ep_.send_gather(pe, kShmemHandler, pieces);
}

sim::Task<void> ShmemCtx::quiet() {
  co_await ep_.poll_until([this] { return puts_acked_ == puts_issued_; });
}

sim::Task<void> ShmemCtx::get(int pe, std::size_t src_off, MutByteSpan dst) {
  // Heaps are symmetric, so the local size bounds the remote read.
  if (src_off + dst.size() > heap_.size()) {
    throw std::out_of_range("shmem: get beyond heap");
  }
  auto& host = ep_.host();
  host.charge(Cost::kCall, sim::ns(300));
  ++stats_.gets;
  std::uint64_t id = next_req_++;
  gets_[id] = PendingGet{dst.data(), false};
  Header h;
  h.op = static_cast<std::uint16_t>(Op::kGet);
  h.bytes = static_cast<std::uint32_t>(dst.size());
  h.offset = src_off;
  h.req_id = id;
  co_await send_header_only(pe, h);
  co_await ep_.poll_until([this, id] { return gets_.at(id).done; });
  gets_.erase(id);
}

sim::Task<std::int64_t> ShmemCtx::fetch_add(int pe, std::size_t off,
                                            std::int64_t delta) {
  auto& host = ep_.host();
  host.charge(Cost::kCall, sim::ns(300));
  ++stats_.fadds;
  std::uint64_t id = next_req_++;
  fadds_[id] = PendingFadd{};
  Header h;
  h.op = static_cast<std::uint16_t>(Op::kFadd);
  h.offset = off;
  h.req_id = id;
  h.value = delta;
  co_await send_header_only(pe, h);
  co_await ep_.poll_until([this, id] { return fadds_.at(id).done; });
  std::int64_t v = fadds_.at(id).value;
  fadds_.erase(id);
  co_return v;
}

sim::Task<void> ShmemCtx::accumulate(int pe, std::size_t dst_off,
                                     std::span<const double> src) {
  auto& host = ep_.host();
  host.charge(Cost::kCall, sim::ns(300));
  ++stats_.accs;
  ++puts_issued_;  // completion tracked like a put
  Header h;
  h.op = static_cast<std::uint16_t>(Op::kAcc);
  h.bytes = static_cast<std::uint32_t>(src.size_bytes());
  h.offset = dst_off;
  const ByteSpan pieces[] = {
      as_bytes_of(h),
      ByteSpan{reinterpret_cast<const std::byte*>(src.data()),
               src.size_bytes()}};
  co_await ep_.send_gather(pe, kShmemHandler, pieces);
}

fm2::HandlerTask ShmemCtx::on_message(fm2::RecvStream& s, int src) {
  auto& host = ep_.host();
  Header h;
  co_await s.receive(&h, sizeof(h));
  host.charge(Cost::kHeader, sim::ns(150));

  switch (static_cast<Op>(h.op)) {
    case Op::kPut: {
      assert(h.offset + h.bytes <= heap_.size());
      // One-sided delivery: payload lands directly in the heap.
      if (h.bytes > 0) {
        co_await s.receive(heap_.data() + h.offset, h.bytes);
      }
      Header ack;
      ack.op = static_cast<std::uint16_t>(Op::kPutAck);
      ep_.defer([this, src, ack]() -> sim::Task<void> {
        co_await send_header_only(src, ack);
      });
      break;
    }
    case Op::kPutAck:
      ++puts_acked_;
      break;
    case Op::kGet: {
      // Reply with the requested heap slice (deferred: handlers only
      // receive; the reply send happens right after this extract).
      Header rep;
      rep.op = static_cast<std::uint16_t>(Op::kGetReply);
      rep.bytes = h.bytes;
      rep.req_id = h.req_id;
      std::size_t off = h.offset;
      std::uint32_t n = h.bytes;
      ep_.defer([this, src, rep, off, n]() -> sim::Task<void> {
        const ByteSpan pieces[] = {
            as_bytes_of(rep),
            ByteSpan{heap_.data() + off, n}};
        co_await ep_.send_gather(src, kShmemHandler, pieces);
      });
      break;
    }
    case Op::kGetReply: {
      PendingGet& pg = gets_.at(h.req_id);
      if (h.bytes > 0) co_await s.receive(pg.dst, h.bytes);
      pg.done = true;
      break;
    }
    case Op::kFadd: {
      assert(h.offset + sizeof(std::int64_t) <= heap_.size());
      std::int64_t old;
      std::memcpy(&old, heap_.data() + h.offset, sizeof(old));
      std::int64_t neu = old + h.value;
      std::memcpy(heap_.data() + h.offset, &neu, sizeof(neu));
      host.charge(Cost::kOther, sim::ns(100));
      Header rep;
      rep.op = static_cast<std::uint16_t>(Op::kFaddReply);
      rep.req_id = h.req_id;
      rep.value = old;
      ep_.defer([this, src, rep]() -> sim::Task<void> {
        co_await send_header_only(src, rep);
      });
      break;
    }
    case Op::kFaddReply: {
      PendingFadd& pf = fadds_.at(h.req_id);
      pf.value = h.value;
      pf.done = true;
      break;
    }
    case Op::kAcc: {
      assert(h.offset + h.bytes <= heap_.size());
      Bytes tmp(h.bytes);
      if (h.bytes > 0) co_await s.receive(MutByteSpan{tmp});
      std::size_t n = h.bytes / sizeof(double);
      const double* in = reinterpret_cast<const double*>(tmp.data());
      double* out = reinterpret_cast<double*>(heap_.data() + h.offset);
      for (std::size_t i = 0; i < n; ++i) out[i] += in[i];
      host.charge(Cost::kOther, sim::ns(10) * n);
      Header ack;
      ack.op = static_cast<std::uint16_t>(Op::kPutAck);
      ep_.defer([this, src, ack]() -> sim::Task<void> {
        co_await send_header_only(src, ack);
      });
      break;
    }
    default:
      throw std::runtime_error("shmem: unknown op");
  }
}

}  // namespace fmx::shmem
