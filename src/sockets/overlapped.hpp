// Winsock2-style overlapped I/O over Socket-FM. The paper closes §4.2 with
// "An implementation of Winsock 2 is in progress" — this is that interface
// style finished: post buffers ahead of data, let completions arrive, wait
// on one or any. Posted receive buffers are handed to the socket in order,
// so the zero-copy pending-recv path does the filling.
#pragma once

#include <deque>
#include <memory>
#include <span>

#include "sockets/socket_fm.hpp"

namespace fmx::sock {

struct IoState {
  bool done = false;
  std::size_t bytes = 0;
  bool eof = false;
};

class IoRequest {
 public:
  IoRequest() = default;
  explicit IoRequest(std::shared_ptr<IoState> st) : st_(std::move(st)) {}
  bool valid() const noexcept { return st_ != nullptr; }
  bool done() const noexcept { return st_ && st_->done; }
  std::size_t bytes() const noexcept { return st_->bytes; }
  bool eof() const noexcept { return st_->eof; }
  IoState* state() noexcept { return st_.get(); }

 private:
  std::shared_ptr<IoState> st_;
};

/// One overlapped view per socket. Requires the socket's stack to share the
/// engine the Overlapped was built with (it spawns a service coroutine).
class Overlapped {
 public:
  Overlapped(sim::Engine& eng, SocketFm& stack, Socket& sock);
  Overlapped(const Overlapped&) = delete;
  Overlapped& operator=(const Overlapped&) = delete;

  /// Post a receive buffer. Buffers complete in posting order; each
  /// completes with >= 1 byte (like recv(2)), or 0 bytes at EOF.
  IoRequest async_recv(MutByteSpan buf);

  /// Overlapped send: data is consumed before return (eager completion,
  /// as with a Winsock send that completes immediately).
  sim::Task<IoRequest> async_send(ByteSpan data);

  /// Block until `req` completes; returns bytes transferred.
  sim::Task<std::size_t> wait(IoRequest req);

  /// Block until any of `reqs` completes; returns the first done index.
  sim::Task<int> wait_any(std::span<IoRequest> reqs);

 private:
  struct Posted {
    Posted() = default;
    Posted(MutByteSpan b, std::shared_ptr<IoState> s)
        : buf(b), st(std::move(s)) {}
    MutByteSpan buf;
    std::shared_ptr<IoState> st;
  };

  sim::Task<void> service();

  sim::Engine& eng_;
  SocketFm& stack_;
  Socket& sock_;
  std::deque<Posted> posted_;
  sim::CondVar work_cv_;
};

}  // namespace fmx::sock
