// Fast Messages 1.x (paper §3, Table 1).
//
// Guarantees: reliable, in-order delivery with sender-side credit flow
// control and receiver buffer management. The API is contiguous-buffer,
// whole-message: FM_send injects a complete message; on arrival the whole
// message is presented to a user handler as one contiguous region — for
// multi-packet messages this forces FM itself to reassemble into a staging
// buffer (one of the copies FM 2.x later eliminates).
//
// Handlers are synchronous functions invoked from within FM_extract, which
// processes *all* pending packets (no receiver pacing — the FM 1.x
// limitation the paper identifies).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/buffer_pool.hpp"
#include "common/fmwire.hpp"
#include "common/handler_table.hpp"
#include "myrinet/node.hpp"
#include "sim/ring.hpp"

namespace fmx::fm1 {

using HandlerId = std::uint16_t;

/// Synchronous message handler: invoked with the complete message.
/// `data` is only valid for the duration of the call (it may point into the
/// receive ring or a staging buffer), exactly like the real FM 1.x.
using Handler = std::function<void(int src, ByteSpan data)>;

struct Config {
  /// Send-side credits per peer; 0 = divide the host ring among peers.
  int credits_per_peer = 0;
  /// FM 1.x moves send data across the I/O bus with programmed I/O; set
  /// false to use NIC DMA fetch instead (ablation knob).
  bool pio_send = true;
};

using PacketHeader = wire::PacketHeader;
using PacketType = wire::PacketType;

class Endpoint {
 public:
  /// Bind to a node and the fabric (replica) it is attached to. An
  /// endpoint only ever touches its own node plus that fabric's
  /// pool/tracer, so it is naturally shard-local (see
  /// myrinet/parallel_cluster.hpp).
  Endpoint(net::Node& node, net::Fabric& fabric, Config cfg = {});
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Table 1: FM_send(dest, handler, buf, size) — send a long message.
  sim::Task<void> send(int dest, HandlerId handler, ByteSpan data);

  /// Table 1: FM_send_4(dest, handler, i0..i3) — four-word fast path.
  sim::Task<void> send4(int dest, HandlerId handler, std::uint32_t i0,
                        std::uint32_t i1, std::uint32_t i2, std::uint32_t i3);

  /// Table 1: FM_extract() — process all pending messages; returns the
  /// number of complete messages whose handlers ran.
  sim::Task<int> extract();

  /// Poll extract() until `done` returns true (convenience for programs
  /// that would spin on the network).
  sim::Task<void> poll_until(const std::function<bool()>& done);

  void register_handler(HandlerId id, Handler h);

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
    std::uint64_t credit_stall_events = 0;
    std::uint64_t credit_packets_sent = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Partial {
    BufferRef staging;
    std::size_t received = 0;
    PacketHeader head;
  };

  sim::Task<void> send_packet(int dest, PacketType type, HandlerId handler,
                              std::uint32_t msg_bytes, std::uint16_t pkt_index,
                              std::uint32_t msg_seq, ByteSpan chunk);
  sim::Task<void> acquire_credit(int dest);
  /// Handle one raw packet popped from the ring (or pending queue).
  void process_packet(net::RxPacket&& pkt, int* completed);
  void deliver_data(int src, const PacketHeader& h, ByteSpan chunk,
                    int* completed);
  std::uint16_t take_piggyback(int dest);
  void slot_freed(int src);
  sim::Task<void> maybe_return_credits(int dest);
  /// The shard's packet-buffer pool (owned by its fabric replica).
  BufferPool& pool() noexcept { return fabric_.pool(); }

  net::Fabric& fabric_;
  net::Node& node_;
  Config cfg_;
  int credit_return_threshold_ = 1;
  int n_hosts_;
  std::size_t seg_;  // payload bytes per packet
  HandlerTable<Handler> handlers_;
  std::vector<int> credits_;        // send credits toward each peer
  std::vector<int> freed_;          // receive slots freed, owed to peer
  std::vector<std::uint32_t> next_msg_seq_;
  std::unordered_map<std::uint64_t, Partial> partials_;  // key: src<<32|seq
  sim::RingQueue<net::RxPacket> pending_;  // parked while hunting for credits
  Stats stats_;
};

// ---------------------------------------------------------------------------
// Table 1 free-function spelling. The real FM used an implicit per-process
// context; in the simulator several "processes" share one address space, so
// the endpoint is explicit as the first argument.
inline sim::Task<void> FM_send(Endpoint& ep, int dest, HandlerId handler,
                               ByteSpan buf) {
  return ep.send(dest, handler, buf);
}
inline sim::Task<void> FM_send_4(Endpoint& ep, int dest, HandlerId handler,
                                 std::uint32_t i0, std::uint32_t i1,
                                 std::uint32_t i2, std::uint32_t i3) {
  return ep.send4(dest, handler, i0, i1, i2, i3);
}
inline sim::Task<int> FM_extract(Endpoint& ep) { return ep.extract(); }

}  // namespace fmx::fm1
