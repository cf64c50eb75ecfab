// CM-5 Active Messages (CMAM) with composable guarantee layers — the
// substrate behind Figure 2 and the ASPLOS'94 study (paper §2.3) that
// motivated FM's choice of guarantees.
//
// The CM-5 network delivers 4-word packets with none of the guarantees
// applications want: delivery order is arbitrary, buffering is finite, and
// (for the study's purposes) packets may be lost. Each software guarantee
// is implemented as an explicit layer whose work is charged, cycle by
// cycle, to its own ledger category:
//   base        — packet compose / inject / receive / dispatch
//   buffer mgmt — reassembly of multi-packet messages into buffers
//   in-order    — per-source sequencing and a reorder queue
//   fault tol.  — acks, sender retention, timeout retransmission
// Running the 16-word / 4-word-packet reference case reproduces the
// paper's stacked-bar breakdown (~397 total cycles, 148 buffer, 21 order,
// 47 fault tolerance for the finite-sequence protocol).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/ledger.hpp"
#include "sim/random.hpp"

namespace fmx::am {

using Word = std::uint32_t;

/// Guarantee layers, composable as a bitmask.
enum Guarantee : unsigned {
  kBase = 0,
  kBufferMgmt = 1u << 0,
  kInOrder = 1u << 1,
  kFaultTol = 1u << 2,
  kAll = kBufferMgmt | kInOrder | kFaultTol,
};

/// Finite sequence: message length is known up front (preallocated buffer,
/// fixed window). Indefinite: streamed, length unknown until the final
/// packet (per-packet growth, termination handling) — costlier, as Figure 2
/// shows.
enum class SeqMode { kFinite, kIndefinite };

struct Cm5Params {
  int words_per_packet = 4;
  double cycle_ns = 30.0;        // 33 MHz SPARC node
  double net_latency_ns = 500.0;
  /// Max random extra delay (causes arbitrary delivery order when > 0).
  double reorder_window_ns = 0.0;
  double drop_rate = 0.0;
  std::uint64_t seed = 1;
};

/// Per-side cycle ledger: the unit Figure 2 reports.
struct CycleLedger {
  std::uint64_t base = 0;
  std::uint64_t buffer_mgmt = 0;
  std::uint64_t in_order = 0;
  std::uint64_t fault_tol = 0;
  std::uint64_t total() const {
    return base + buffer_mgmt + in_order + fault_tol;
  }
};

struct Packet {
  Packet() = default;

  int src = -1;
  int dst = -1;
  bool is_ack = false;
  std::uint32_t msg_id = 0;
  std::uint16_t pkt_index = 0;
  std::uint16_t total_pkts = 0;   // finite mode; 0 = unknown (indefinite)
  bool last = false;              // indefinite-mode termination marker
  std::uint32_t src_seq = 0;      // in-order layer sequencing
  std::uint16_t handler = 0;
  std::vector<Word> words;
};

class CmamEndpoint;

/// The CM-5-like network: arbitrary order (random jitter), optional loss.
class Cm5Net {
 public:
  Cm5Net(sim::Engine& eng, const Cm5Params& p) : eng_(eng), p_(p),
                                                 rng_(p.seed) {}
  void attach(CmamEndpoint* ep) { eps_.push_back(ep); }
  void send(Packet pkt);

  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t dropped = 0;
  };
  const Stats& stats() const noexcept { return stats_; }
  const Cm5Params& params() const noexcept { return p_; }
  sim::Engine& engine() noexcept { return eng_; }

 private:
  sim::Engine& eng_;
  Cm5Params p_;
  sim::Rng rng_;
  std::vector<CmamEndpoint*> eps_;
  Stats stats_;
};

/// Handler invoked with a complete message (buffer-mgmt on) or with each
/// packet's words (buffer-mgmt off — raw AM semantics).
using MsgHandler = std::function<void(int src, std::span<const Word> data)>;

class CmamEndpoint {
 public:
  CmamEndpoint(Cm5Net& net, int id, unsigned guarantees, SeqMode mode);

  /// Send `data` to `dst` as a sequence of 4-word packets.
  void send_message(int dst, std::uint16_t handler,
                    std::span<const Word> data);
  /// Process all queued inbound packets (CMAM poll).
  void poll();
  void register_handler(std::uint16_t id, MsgHandler h);

  /// Called by the network on delivery.
  void deliver(Packet pkt) { inbox_.push_back(std::move(pkt)); }

  int id() const noexcept { return id_; }
  const CycleLedger& src_cycles() const noexcept { return src_; }
  const CycleLedger& dest_cycles() const noexcept { return dest_; }
  std::uint64_t messages_delivered() const noexcept { return delivered_; }
  /// True while the fault-tolerance layer still retains unacked packets.
  bool has_unacked() const noexcept { return !retained_.empty(); }
  /// Fault-tolerance timeout sweep: retransmit anything outstanding.
  void retransmit_unacked();

 private:
  struct Reassembly {
    std::vector<Word> words;
    std::vector<bool> seen;     // per-packet, duplicate-safe
    std::uint16_t received = 0;
    std::uint16_t total = 0;    // 0 until known
    bool saw_last = false;
    std::uint16_t handler = 0;
  };

  void process(Packet& pkt);
  void dispatch(int src, std::uint16_t handler, std::span<const Word> data);
  bool ordered_admit(Packet& pkt);   // in-order layer
  void handle_data(Packet& pkt);

  Cm5Net& net_;
  int id_;
  unsigned g_;
  SeqMode mode_;
  std::vector<MsgHandler> handlers_;
  std::deque<Packet> inbox_;
  CycleLedger src_;
  CycleLedger dest_;
  std::uint32_t next_msg_id_ = 0;
  std::uint64_t delivered_ = 0;

  // in-order layer state
  std::vector<std::uint32_t> next_send_seq_;   // per destination
  std::vector<std::uint32_t> next_recv_seq_;   // per source
  std::map<std::pair<int, std::uint32_t>, Packet> reorder_q_;

  // buffer management state
  std::unordered_map<std::uint64_t, Reassembly> partial_;

  // fault tolerance state
  std::map<std::pair<std::uint32_t, std::uint16_t>, Packet> retained_;
};

}  // namespace fmx::am
