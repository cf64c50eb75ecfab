// Protocol-invariant checker. Tests record what each sender injected and
// what each receiver observed; after the engine drains, check_* methods
// assert the end-to-end properties the FM stack promises even over a
// faulty fabric (with reliable_link on):
//
//   * exactly-once, in-order, byte-exact delivery per (src,dst) stream
//   * engine quiescence (no root task still suspended = no deadlock)
//   * no orphaned NIC resources: SRAM slack tokens all home, host ring
//     drained, nothing staged in the control programs, go-back-N window
//     empty
//   * FM2 credit conservation: for each (sender,receiver) pair the send
//     allowance plus the receiver's unreturned credits equals the
//     configured window
//   * host CostLedger consistency (total equals the sum of categories)
//
// Violations accumulate as human-readable strings rather than aborting, so
// a failing seed prints everything that went wrong in one report.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/engine.hpp"
#include "sim/ledger.hpp"

namespace fmx::fault {

class InvariantLedger {
 public:
  // --- Recording (call from workload code as traffic happens) -------------
  /// Record a message handed to the send side of the (src,dst) stream.
  void note_sent(int src, int dst, ByteSpan payload);
  /// Record a message observed complete at the receiver.
  void note_delivered(int src, int dst, ByteSpan payload);

  // --- Post-run checks ----------------------------------------------------
  /// Every recorded stream delivered exactly-once, in-order, byte-exact.
  void check_streams();
  /// All root tasks finished: the run ended by completion, not deadlock.
  void check_engine(const sim::Engine& eng);
  /// No orphaned SRAM slots, ring entries, staged packets, or unacked data.
  void check_nic(const net::Nic& nic);
  /// CostLedger self-consistency for one host.
  void check_host_ledger(const net::Host& host, int id);
  /// check_nic + check_host_ledger for every node.
  void check_cluster(net::ParallelCluster& cluster);
  /// FM2 credit/window conservation for traffic sender -> receiver, plus
  /// no parked or backlogged packets left on the receiver.
  void check_fm2_pair(const fm2::Endpoint& sender,
                      const fm2::Endpoint& receiver);

  // --- Results ------------------------------------------------------------
  bool ok() const noexcept { return violations_.empty(); }
  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  /// One line per violation, or "all invariants hold".
  std::string report() const;
  void violation(std::string msg) { violations_.push_back(std::move(msg)); }

  std::uint64_t messages_sent() const noexcept { return sent_total_; }
  std::uint64_t messages_delivered() const noexcept {
    return delivered_total_;
  }

 private:
  struct MsgRec {
    std::uint64_t id;       // per-stream send sequence
    std::uint32_t size;
    std::uint32_t crc;      // crc32 of the payload at send time
  };
  struct Stream {
    std::deque<MsgRec> outstanding;  // sent, not yet matched by a delivery
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
  };

  Stream& stream(int src, int dst) { return streams_[{src, dst}]; }

  std::map<std::pair<int, int>, Stream> streams_;
  std::vector<std::string> violations_;
  std::uint64_t sent_total_ = 0;
  std::uint64_t delivered_total_ = 0;
};

}  // namespace fmx::fault
