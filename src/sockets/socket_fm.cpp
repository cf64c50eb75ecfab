#include "sockets/socket_fm.hpp"

#include "common/copy_stats.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace fmx::sock {

using sim::Cost;

SocketFm::SocketFm(fm2::Endpoint& ep) : ep_(ep) {
  ep_.register_handler(kSockHandler, [this](fm2::RecvStream& s, int src) {
    return on_message(s, src);
  });
}

Socket* SocketFm::alloc_socket() {
  auto s = std::make_unique<Socket>();
  s->owner_ = this;
  s->local_id_ = static_cast<int>(socks_.size());
  socks_.push_back(std::move(s));
  return socks_.back().get();
}

void SocketFm::listen(int port) { listening_[port] = true; }

sim::Task<void> SocketFm::send_ctrl(int node, Op op, int port, int src_conn,
                                    int dst_conn) {
  SockHeader h;
  h.op = static_cast<std::uint16_t>(op);
  h.port = static_cast<std::uint16_t>(port);
  h.src_conn = src_conn;
  h.dst_conn = dst_conn;
  ep_.host().charge(Cost::kCall, sim::ns(300));
  co_await ep_.send(node, kSockHandler, as_bytes_of(h));
}

sim::Task<Socket*> SocketFm::connect(int peer_node, int port) {
  Socket* s = alloc_socket();
  s->peer_node_ = peer_node;
  co_await send_ctrl(peer_node, Op::kSyn, port, s->local_id_, -1);
  co_await ep_.poll_until([s] { return s->established_; });
  co_return s;
}

sim::Task<Socket*> SocketFm::accept(int port) {
  co_await ep_.poll_until([this, port] {
    auto it = pending_.find(port);
    return it != pending_.end() && !it->second.empty();
  });
  int id = pending_[port].front();
  pending_[port].pop_front();
  co_return socks_.at(id).get();
}

fm2::HandlerTask SocketFm::on_message(fm2::RecvStream& s, int src) {
  auto& host = ep_.host();
  SockHeader h;
  co_await s.receive(&h, sizeof(h));
  host.charge(Cost::kHeader, sim::ns(150));

  switch (static_cast<Op>(h.op)) {
    case Op::kSyn: {
      // Passive open: create the acceptor-side socket and reply.
      Socket* acc = alloc_socket();
      acc->peer_node_ = src;
      acc->peer_id_ = h.src_conn;
      acc->established_ = true;
      pending_[h.port].push_back(acc->local_id_);
      host.charge(Cost::kBufferMgmt, sim::ns(400));
      int my_id = acc->local_id_;
      int port = h.port;
      int their = h.src_conn;
      ep_.defer([this, src, port, my_id, their]() -> sim::Task<void> {
        co_await send_ctrl(src, Op::kSynAck, port, my_id, their);
      });
      break;
    }
    case Op::kSynAck: {
      Socket& sk = *socks_.at(h.dst_conn);
      sk.peer_id_ = h.src_conn;
      sk.established_ = true;
      break;
    }
    case Op::kData: {
      Socket& sk = *socks_.at(h.dst_conn);
      std::size_t remaining = h.bytes;
      stats_.bytes_received += remaining;
      // Zero-copy path: a waiting recv() takes bytes straight off the
      // stream into the user's buffer.
      while (remaining > 0 && sk.pending_buf_ != nullptr &&
             sk.pending_got_ < sk.pending_cap_ && sk.buffered_bytes_ == 0) {
        std::size_t take = std::min(remaining,
                                    sk.pending_cap_ - sk.pending_got_);
        co_await s.receive(sk.pending_buf_ + sk.pending_got_, take);
        sk.pending_got_ += take;
        stats_.zero_copy_bytes += take;
        remaining -= take;
      }
      // Whatever is left lands in the connection buffer.
      if (remaining > 0) {
        Bytes chunk(remaining);
        co_await s.receive(MutByteSpan{chunk});
        sk.buffered_bytes_ += chunk.size();
        sk.chunks_.push_back(std::move(chunk));
        stats_.buffered_bytes += remaining;
      }
      break;
    }
    case Op::kFin: {
      Socket& sk = *socks_.at(h.dst_conn);
      sk.fin_received_ = true;
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Socket

sim::Task<void> Socket::send(ByteSpan data) {
  if (!established_) throw std::logic_error("socket: send before connect");
  if (fin_sent_) throw std::logic_error("socket: send after close");
  auto& ep = owner_->ep_;
  auto& host = ep.host();
  host.charge(sim::Cost::kCall, sim::ns(300));
  std::size_t off = 0;
  do {
    std::size_t n = std::min(SocketFm::kMaxFragment, data.size() - off);
    SocketFm::SockHeader h;
    h.op = static_cast<std::uint16_t>(SocketFm::Op::kData);
    h.src_conn = local_id_;
    h.dst_conn = peer_id_;
    h.bytes = static_cast<std::uint32_t>(n);
    const ByteSpan pieces[] = {as_bytes_of(h), data.subspan(off, n)};
    co_await ep.send_gather(peer_node_, SocketFm::kSockHandler, pieces);
    off += n;
  } while (off < data.size());
}

sim::Task<std::size_t> Socket::recv(MutByteSpan buf) {
  auto& ep = owner_->ep_;
  auto& host = ep.host();
  host.charge(sim::Cost::kCall, sim::ns(300));
  if (buf.empty()) co_return 0;
  for (;;) {
    if (buffered_bytes_ > 0) {
      // Consume sub-slices off the chunk deque; no byte shifting, and the
      // modeled charge stays one memcpy over the total delivered.
      std::size_t n = std::min(buf.size(), buffered_bytes_);
      std::size_t got = 0;
      while (got < n) {
        Bytes& front = chunks_.front();
        std::size_t take = std::min(n - got, front.size() - chunk_off_);
        std::memcpy(buf.data() + got, front.data() + chunk_off_, take);
        got += take;
        chunk_off_ += take;
        if (chunk_off_ == front.size()) {
          chunks_.pop_front();
          chunk_off_ = 0;
        }
      }
      buffered_bytes_ -= n;
      count_endpoint_copy(n);
      host.charge(sim::Cost::kCopy, host.memcpy_cost(n));
      host.ledger().note_copy(n);
      co_await host.sync();
      co_return n;
    }
    if (fin_received_) co_return 0;  // EOF
    // Post our buffer so the handler can fill it directly.
    pending_buf_ = buf.data();
    pending_cap_ = buf.size();
    pending_got_ = 0;
    co_await ep.poll_until([this] {
      return pending_got_ > 0 || fin_received_ || buffered_bytes_ > 0;
    });
    pending_buf_ = nullptr;
    if (pending_got_ > 0) co_return pending_got_;
    // else loop: either EOF or data landed in the buffer after all
  }
}

sim::Task<void> Socket::recv_exact(MutByteSpan buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    std::size_t n = co_await recv(buf.subspan(off));
    if (n == 0) throw std::runtime_error("socket: EOF mid recv_exact");
    off += n;
  }
}

sim::Task<void> Socket::close() {
  if (fin_sent_) co_return;
  fin_sent_ = true;
  SocketFm::SockHeader h;
  h.op = static_cast<std::uint16_t>(SocketFm::Op::kFin);
  h.src_conn = local_id_;
  h.dst_conn = peer_id_;
  co_await owner_->ep_.send(peer_node_, SocketFm::kSockHandler,
                            as_bytes_of(h));
}

}  // namespace fmx::sock
