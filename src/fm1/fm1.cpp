#include "fm1/fm1.hpp"

#include "common/copy_stats.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace fmx::fm1 {

using sim::Cost;

namespace {

constexpr sim::Ps kHeaderBuildCost = sim::ns(150);
constexpr sim::Ps kHeaderParseCost = sim::ns(100);
constexpr sim::Ps kCreditOpCost = sim::ns(100);
constexpr sim::Ps kPerPacketBookkeeping = sim::ns(100);
constexpr sim::Ps kStagingAllocCost = sim::ns(500);
// Cap on packets parked host-side while a blocked sender drains its ring
// looking for credit packets (sender-progress guarantee).
constexpr std::size_t kPendingLimit = 4096;

}  // namespace

Endpoint::Endpoint(net::Node& node, net::Fabric& fabric, Config cfg)
    : fabric_(fabric),
      node_(node),
      cfg_(cfg),
      n_hosts_(fabric.n_hosts()) {
  const auto& nic = node_.nic().params();
  assert(nic.mtu_payload > sizeof(PacketHeader));
  seg_ = nic.mtu_payload - sizeof(PacketHeader);
  if (cfg_.credits_per_peer <= 0) {
    int peers = std::max(1, n_hosts_ - 1);
    cfg_.credits_per_peer =
        std::max(2, static_cast<int>(nic.host_ring_slots) / peers);
  }
  credit_return_threshold_ = std::max(1, cfg_.credits_per_peer / 2);
  credits_.assign(n_hosts_, cfg_.credits_per_peer);
  freed_.assign(n_hosts_, 0);
  next_msg_seq_.assign(n_hosts_, 0);
}

void Endpoint::register_handler(HandlerId id, Handler h) {
  handlers_.set(id, std::move(h));
}

std::uint16_t Endpoint::take_piggyback(int dest) {
  int v = std::min(freed_[dest], 0xFFFF);
  freed_[dest] -= v;
  return static_cast<std::uint16_t>(v);
}

sim::Task<void> Endpoint::send_packet(int dest, PacketType type,
                                      HandlerId handler,
                                      std::uint32_t msg_bytes,
                                      std::uint16_t pkt_index,
                                      std::uint32_t msg_seq, ByteSpan chunk) {
  PacketHeader h;
  h.type = static_cast<std::uint16_t>(type);
  h.handler = handler;
  h.msg_bytes = msg_bytes;
  h.pkt_index = pkt_index;
  h.credits = take_piggyback(dest);
  h.msg_seq = msg_seq;

  const std::uint64_t tid =
      trace::Tracer::msg_id(id(), dest, trace::Layer::kFm1, msg_seq);
  tracer().record(trace::EventType::kSendEnqueue, trace::Layer::kFm1, id(),
                  tid, chunk.size());

  bool fresh = false;
  BufferRef pkt =
      pool().acquire_ref(sizeof(PacketHeader) + chunk.size(), &fresh);
  if (fresh) node_.host().ledger().note_alloc();
  // Contiguous assembly is FM 1.x's defining endpoint copy: header and user
  // chunk really move into the packet buffer (the PIO/DMA charge below is
  // the modeled cost of the same movement).
  MutByteSpan pb = pkt.mutable_bytes();
  std::memcpy(pb.data(), &h, sizeof(h));
  if (!chunk.empty()) {
    std::memcpy(pb.data() + sizeof(h), chunk.data(), chunk.size());
  }
  count_endpoint_copy(pkt.size());
  node_.host().charge(Cost::kHeader, kHeaderBuildCost);
  ++stats_.packets_sent;

  auto& host = node_.host();
  auto& bus = node_.bus();
  if (cfg_.pio_send) {
    // Programmed I/O: the host CPU pushes the packet into NIC SRAM word by
    // word; host and bus are both occupied for the duration.
    host.note(Cost::kPio, bus.pio_time(pkt.size()));
    host.ledger().note_copy(pkt.size());
    co_await host.sync();
    co_await bus.pio(pkt.size());
    net::SendDescriptor sd(dest, std::move(pkt), /*fetch_dma=*/false);
    sd.trace_id = tid;
    co_await node_.nic().enqueue(std::move(sd));
  } else {
    // DMA mode: the bytes were already assembled into a pinned host buffer
    // (that assembly is this very `pkt` build; charge it as a copy) and the
    // NIC fetches them across the bus.
    host.charge(Cost::kCopy, host.memcpy_cost(pkt.size()));
    host.ledger().note_copy(pkt.size());
    co_await host.sync();
    net::SendDescriptor sd(dest, std::move(pkt), /*fetch_dma=*/true);
    sd.trace_id = tid;
    co_await node_.nic().enqueue(std::move(sd));
  }
}

sim::Task<void> Endpoint::acquire_credit(int dest) {
  auto& host = node_.host();
  host.charge(Cost::kFlowCtl, kCreditOpCost);
  if (credits_[dest] > 0) {
    --credits_[dest];
    co_return;
  }
  ++stats_.credit_stall_events;
  for (;;) {
    // Drain the ring looking for credits. Data packets are parked host-side
    // (their ring slots are thereby freed — FM's buffer management is what
    // lets senders progress while receivers compute).
    int drained = 0;
    while (auto p = node_.nic().host_ring().try_pop()) {
      ++drained;
      PacketHeader h = wire::parse_header(p->payload);
      host.charge(Cost::kFlowCtl, kCreditOpCost);
      if (h.credits > 0) {
        credits_[p->src] += h.credits;
        // No strip-by-rewrite needed: parked packets are only ever re-read
        // by extract()'s pending loop, which never applies credits (and a
        // rewrite would COW-clone a block shared with the sender's
        // go-back-N retention).
      }
      if (static_cast<PacketType>(h.type) == PacketType::kCredit) {
        p->payload.reset();
        continue;  // pure control packet, fully consumed
      }
      if (pending_.size() >= kPendingLimit) {
        throw std::runtime_error(
            "FM1: host-side pending buffer overflow (flow control breach)");
      }
      host.charge(Cost::kBufferMgmt, kPerPacketBookkeeping);
      slot_freed(p->src);
      pending_.push_back(std::move(*p));
    }
    if (drained > 0) node_.nic().host_ring().poke();
    if (credits_[dest] > 0) {
      --credits_[dest];
      co_return;
    }
    host.charge(Cost::kFlowCtl, host.params().poll_gap);
    co_await host.sync();
    // Nothing to drain: sleep until the NIC delivers something rather than
    // spinning the simulated clock forever.
    co_await node_.nic().host_ring().wait_nonempty();
  }
}

sim::Task<void> Endpoint::send(int dest, HandlerId handler, ByteSpan data) {
  auto& host = node_.host();
  // The wire header indexes packets in 16 bits.
  if ((data.size() + seg_ - 1) / seg_ > 0xFFFF) {
    throw std::length_error("FM1: message exceeds 65535 packets");
  }
  host.charge(Cost::kCall, host.params().call_overhead);
  ++stats_.msgs_sent;
  const std::uint32_t seq = next_msg_seq_[dest]++;
  const std::uint32_t total = static_cast<std::uint32_t>(data.size());
  std::size_t off = 0;
  std::uint16_t index = 0;
  do {
    std::size_t n = std::min(seg_, data.size() - off);
    co_await acquire_credit(dest);
    co_await send_packet(dest, PacketType::kData, handler, total, index,
                         seq, data.subspan(off, n));
    off += n;
    ++index;
  } while (off < data.size());
}

sim::Task<void> Endpoint::send4(int dest, HandlerId handler, std::uint32_t i0,
                                std::uint32_t i1, std::uint32_t i2,
                                std::uint32_t i3) {
  auto& host = node_.host();
  // The four-word fast path skips the general argument marshalling.
  host.charge(Cost::kCall, host.params().call_overhead / 2);
  ++stats_.msgs_sent;
  std::uint32_t words[4] = {i0, i1, i2, i3};
  const std::uint32_t seq = next_msg_seq_[dest]++;
  co_await acquire_credit(dest);
  co_await send_packet(dest, PacketType::kData, handler, 16, 0, seq,
                       ByteSpan{reinterpret_cast<const std::byte*>(words), 16});
}

void Endpoint::slot_freed(int src) { ++freed_[src]; }

sim::Task<void> Endpoint::maybe_return_credits(int dest) {
  if (freed_[dest] < credit_return_threshold_) co_return;
  std::uint16_t give = take_piggyback(dest);
  if (give == 0) co_return;
  ++stats_.credit_packets_sent;
  PacketHeader h;
  h.type = static_cast<std::uint16_t>(PacketType::kCredit);
  h.credits = give;
  bool fresh = false;
  BufferRef pkt = pool().acquire_ref(sizeof(PacketHeader), &fresh);
  auto& host = node_.host();
  if (fresh) host.ledger().note_alloc();
  std::memcpy(pkt.mutable_bytes().data(), &h, sizeof(h));
  host.charge(Cost::kFlowCtl, kHeaderBuildCost);
  if (cfg_.pio_send) {
    host.note(Cost::kPio, node_.bus().pio_time(pkt.size()));
    co_await host.sync();
    co_await node_.bus().pio(pkt.size());
    co_await node_.nic().enqueue(
        net::SendDescriptor(dest, std::move(pkt), false));
  } else {
    co_await host.sync();
    co_await node_.nic().enqueue(
        net::SendDescriptor(dest, std::move(pkt), true));
  }
}

void Endpoint::deliver_data(int src, const PacketHeader& h, ByteSpan chunk,
                            int* completed) {
  auto& host = node_.host();
  const std::uint64_t tid =
      trace::Tracer::msg_id(src, id(), trace::Layer::kFm1, h.msg_seq);
  if (h.msg_bytes <= seg_) {
    // Single-packet message: the handler sees the packet bytes in place.
    host.charge(Cost::kDispatch, host.params().handler_dispatch);
    ++stats_.msgs_received;
    stats_.bytes_received += chunk.size();
    tracer().record(trace::EventType::kHandlerRun, trace::Layer::kFm1, id(),
                    tid, chunk.size());
    if (const Handler* fn = handlers_.find(h.handler)) (*fn)(src, chunk);
    tracer().record(trace::EventType::kMsgDone, trace::Layer::kFm1, id(),
                    tid, chunk.size());
    ++*completed;
    return;
  }
  // Multi-packet message: FM 1.x must reassemble into a contiguous staging
  // buffer before it can present the message to the handler.
  std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | h.msg_seq;
  auto [it, inserted] = partials_.try_emplace(key);
  Partial& part = it->second;
  if (inserted) {
    bool fresh = false;
    part.staging = pool().acquire_ref(h.msg_bytes, &fresh);
    if (fresh) host.ledger().note_alloc();
    part.head = h;
    host.charge(Cost::kBufferMgmt, kStagingAllocCost);
  }
  std::size_t off = static_cast<std::size_t>(h.pkt_index) * seg_;
  assert(off + chunk.size() <= part.staging.size());
  host.copy(part.staging.mutable_bytes().subspan(off, chunk.size()), chunk,
            Cost::kBufferMgmt);
  part.received += chunk.size();
  if (part.received == part.staging.size()) {
    host.charge(Cost::kDispatch, host.params().handler_dispatch);
    ++stats_.msgs_received;
    stats_.bytes_received += part.staging.size();
    // FM 1.x runs the handler once, only after full reassembly — the
    // handler_run/msg_done gap in a trace is pure handler time, unlike
    // FM 2.x where it overlaps trailing-packet arrival.
    tracer().record(trace::EventType::kHandlerRun, trace::Layer::kFm1, id(),
                    tid, part.staging.size());
    if (const Handler* fn = handlers_.find(part.head.handler)) {
      (*fn)(src, part.staging.span());
    }
    tracer().record(trace::EventType::kMsgDone, trace::Layer::kFm1, id(),
                    tid, part.staging.size());
    partials_.erase(it);  // last reference returns the staging block
    ++*completed;
  }
}

void Endpoint::process_packet(net::RxPacket&& pkt, int* completed) {
  auto& host = node_.host();
  host.charge(Cost::kHeader, kHeaderParseCost);
  PacketHeader h = wire::parse_header(pkt.payload);
  if (h.credits > 0) {
    host.charge(Cost::kFlowCtl, kCreditOpCost);
    credits_[pkt.src] += h.credits;
  }
  if (static_cast<PacketType>(h.type) == PacketType::kCredit) {
    pkt.payload.reset();
    return;  // control only
  }
  ByteSpan chunk = pkt.payload.span().subspan(sizeof(PacketHeader));
  deliver_data(pkt.src, h, chunk, completed);
  slot_freed(pkt.src);
}

sim::Task<int> Endpoint::extract() {
  auto& host = node_.host();
  host.charge(Cost::kCall, host.params().poll_gap);
  int completed = 0;
  // Packets parked by a credit-hungry sender come first (they are older).
  while (!pending_.empty()) {
    net::RxPacket pkt = pending_.take_front();
    // Slot already freed when parked; don't free twice.
    PacketHeader h = wire::parse_header(pkt.payload);
    host.charge(Cost::kHeader, kHeaderParseCost);
    ByteSpan chunk = pkt.payload.span().subspan(sizeof(PacketHeader));
    deliver_data(pkt.src, h, chunk, &completed);
  }
  int processed = 0;
  while (auto p = node_.nic().host_ring().try_pop()) {
    process_packet(std::move(*p), &completed);
    ++processed;
  }
  if (processed > 0) node_.nic().host_ring().poke();
  if (completed > 0) {
    tracer().record(trace::EventType::kExtract, trace::Layer::kFm1, id(), 0,
                    static_cast<std::uint64_t>(completed));
  }
  co_await host.sync();
  for (int peer = 0; peer < n_hosts_; ++peer) {
    co_await maybe_return_credits(peer);
  }
  co_return completed;
}

sim::Task<void> Endpoint::poll_until(const std::function<bool()>& done) {
  auto& host = node_.host();
  while (!done()) {
    (void)co_await extract();
    if (done()) break;
    host.charge(Cost::kCall, host.params().poll_gap);
    co_await host.sync();
    if (node_.nic().host_ring().empty()) {
      co_await node_.nic().host_ring().wait_nonempty();
    }
  }
}

}  // namespace fmx::fm1
