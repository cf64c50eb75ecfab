// Socket-FM: BSD-style stream sockets over FM 2.x (paper §3.2, §4.1 —
// sockets were FM's second test application, and receiver flow control is
// what "enables zero-copy transfers in a significantly larger number of
// cases for both our Socket-FM and MPI-FM implementations").
//
// Receive path: if a recv() is already waiting on the connection, the FM
// handler steers payload bytes directly into the user's buffer (layer
// interleaving, zero intermediate copy); otherwise bytes land in the
// connection's receive buffer. An application that stops calling recv()
// stops extracting, FM withholds credits, and the sender is paced — the
// stream back-pressure TCP needs a window for.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fm2/fm2.hpp"

namespace fmx::sock {

class SocketFm;

/// One endpoint of an established stream connection.
class Socket {
 public:
  /// Send the whole buffer (blocking until handed to FM).
  sim::Task<void> send(ByteSpan data);
  /// Receive at least one byte (like read(2)); returns bytes read, or 0 at
  /// EOF (peer closed and buffer drained).
  sim::Task<std::size_t> recv(MutByteSpan buf);
  /// Receive exactly buf.size() bytes; throws on premature EOF.
  sim::Task<void> recv_exact(MutByteSpan buf);
  /// Half-close: signals EOF to the peer after in-flight data.
  sim::Task<void> close();

  bool eof() const noexcept { return fin_received_ && buffered_bytes_ == 0; }
  std::size_t buffered() const noexcept { return buffered_bytes_; }
  int peer_node() const noexcept { return peer_node_; }

 private:
  friend class SocketFm;

  SocketFm* owner_ = nullptr;
  int local_id_ = -1;
  int peer_node_ = -1;
  int peer_id_ = -1;
  bool established_ = false;
  bool fin_received_ = false;
  bool fin_sent_ = false;
  // Landed data not yet recv()ed, as a deque of chunks consumed from the
  // front through chunk_off_. The old flat deque<byte> paid an O(n) front
  // erase (byte shift) per recv — O(n²) across a drain; slices make each
  // read O(bytes delivered).
  std::deque<Bytes> chunks_;
  std::size_t chunk_off_ = 0;       // consumed prefix of chunks_.front()
  std::size_t buffered_bytes_ = 0;  // total across chunks_
  // A waiting recv(): the handler fills this directly (zero-copy path).
  std::byte* pending_buf_ = nullptr;
  std::size_t pending_cap_ = 0;
  std::size_t pending_got_ = 0;
};

class SocketFm {
 public:
  /// Layer sockets over an FM endpoint, which other libraries may share.
  /// The endpoint must outlive this object.
  explicit SocketFm(fm2::Endpoint& ep);

  /// Passive open: allow connections to `port`.
  void listen(int port);
  /// Active open: returns an established socket.
  sim::Task<Socket*> connect(int peer_node, int port);
  /// Accept one pending (or future) connection on `port`.
  sim::Task<Socket*> accept(int port);

  fm2::Endpoint& fm() noexcept { return ep_; }
  int id() const noexcept { return ep_.id(); }

  struct Stats {
    std::uint64_t bytes_received = 0;
    std::uint64_t zero_copy_bytes = 0;  // landed directly in user buffers
    std::uint64_t buffered_bytes = 0;   // staged in connection buffers
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  friend class Socket;

  enum class Op : std::uint16_t { kSyn = 1, kSynAck = 2, kData = 3,
                                  kFin = 4 };
  struct SockHeader {
    std::uint16_t op = 0;
    std::uint16_t port = 0;
    std::int32_t src_conn = -1;   // sender's connection id
    std::int32_t dst_conn = -1;   // receiver's connection id (-1 for SYN)
    std::uint32_t bytes = 0;
  };
  static_assert(sizeof(SockHeader) == 16);

  static constexpr fm2::HandlerId kSockHandler = 2;
  /// Max payload carried per FM message (fragmentation unit).
  static constexpr std::size_t kMaxFragment = 8 * 1024;

  fm2::HandlerTask on_message(fm2::RecvStream& s, int src);
  sim::Task<void> send_ctrl(int node, Op op, int port, int src_conn,
                            int dst_conn);
  Socket* alloc_socket();

  fm2::Endpoint& ep_;
  std::vector<std::unique_ptr<Socket>> socks_;
  std::unordered_map<int, bool> listening_;             // port -> open
  std::unordered_map<int, std::deque<int>> pending_;    // port -> conn ids
  Stats stats_;
};

}  // namespace fmx::sock
