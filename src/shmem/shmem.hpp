// Shmem-FM: a one-sided put/get global-address-space API over FM 2.x
// (paper §4.2: "we have implemented other APIs, including Shmem Put/Get and
// Global Arrays"). Each PE owns a symmetric heap addressed by offset; puts
// scatter straight into the target heap via the FM 2.x stream (the handler
// receives payload directly at heap+offset — no staging), gets are
// request/reply, and a fetch-add gives a remote atomic.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "fm2/fm2.hpp"

namespace fmx::shmem {

class ShmemCtx {
 public:
  /// Symmetric heap size, the same on every PE.
  static constexpr std::size_t kHeapBytes = std::size_t{1} << 20;

  /// Layer shmem over an FM endpoint, which other libraries may share.
  /// The endpoint must outlive this object.
  explicit ShmemCtx(fm2::Endpoint& ep);

  int pe() const noexcept { return ep_.id(); }
  int n_pes() const noexcept { return ep_.cluster_size(); }
  MutByteSpan heap() noexcept { return MutByteSpan{heap_}; }

  /// One-sided write of `src` into PE `pe`'s heap at `dst_off`.
  /// Completes locally; use quiet() for remote completion.
  sim::Task<void> put(int pe, std::size_t dst_off, ByteSpan src);
  /// One-sided read of `dst.size()` bytes from PE `pe`'s heap at `src_off`.
  sim::Task<void> get(int pe, std::size_t src_off, MutByteSpan dst);
  /// Block until all our outstanding puts are remotely complete (acked).
  sim::Task<void> quiet();
  /// Remote atomic: old = heap[off]; heap[off] += delta; return old.
  sim::Task<std::int64_t> fetch_add(int pe, std::size_t off,
                                    std::int64_t delta);
  /// Remote accumulate: element-wise += of doubles at `dst_off`.
  sim::Task<void> accumulate(int pe, std::size_t dst_off,
                             std::span<const double> src);
  /// Drive progress (targets must poll, as in FM-based shmem).
  sim::Task<void> poll_until(const std::function<bool()>& done) {
    return ep_.poll_until(done);
  }
  /// Wake a sleeping poll_until (termination nudge for SPMD servers).
  void kick() { ep_.kick(); }

  fm2::Endpoint& fm() noexcept { return ep_; }

  struct Stats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t fadds = 0;
    std::uint64_t accs = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  enum class Op : std::uint16_t {
    kPut = 1, kPutAck = 2, kGet = 3, kGetReply = 4,
    kFadd = 5, kFaddReply = 6, kAcc = 7,
  };
  struct Header {
    std::uint16_t op = 0;
    std::uint16_t pad = 0;
    std::uint32_t bytes = 0;
    std::uint64_t offset = 0;
    std::uint64_t req_id = 0;
    std::int64_t value = 0;  // fetch-add delta / reply value
  };
  static_assert(sizeof(Header) == 32);

  struct PendingGet {
    std::byte* dst = nullptr;
    bool done = false;
  };
  struct PendingFadd {
    std::int64_t value = 0;
    bool done = false;
  };

  static constexpr fm2::HandlerId kShmemHandler = 3;
  fm2::HandlerTask on_message(fm2::RecvStream& s, int src);
  sim::Task<void> send_header_only(int pe, const Header& h);

  fm2::Endpoint& ep_;
  Bytes heap_;
  std::uint64_t next_req_ = 1;
  std::uint64_t puts_issued_ = 0;
  std::uint64_t puts_acked_ = 0;
  std::unordered_map<std::uint64_t, PendingGet> gets_;
  std::unordered_map<std::uint64_t, PendingFadd> fadds_;
  Stats stats_;
};

}  // namespace fmx::shmem
