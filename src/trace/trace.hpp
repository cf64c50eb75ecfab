// Cross-layer event tracer. One Tracer per shard (owned by that shard's
// net::Fabric replica; ParallelCluster::merged_trace() merges them) records
// typed events stamped with sim-time, node id, layer tag, and a
// message id threaded through fm1/fm2/mpi/NIC/fabric hook points.
//
// Cost model, matching the paper's discipline about measurement overhead:
//   * Disabled (default): record() is a single predictable branch on a
//     bool — no event storage exists at all, and no simulated time is ever
//     charged (hooks are metadata-only, so traced and untraced runs are
//     bit-identical in simulated behaviour).
//   * Enabled: events go into a ring of fixed-size chunks preallocated by
//     enable(); steady state is allocation-free. When the ring is full the
//     oldest chunk is recycled (dropped_events() counts what was lost).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace fmx::trace {

enum class EventType : std::uint8_t {
  kSendEnqueue,  // message handed to the NIC send queue  (arg = bytes)
  kDmaStart,     // DMA transfer begins                   (arg = bytes)
  kDmaEnd,       // DMA transfer completes                (arg = bytes)
  kWireHop,      // packet injected onto the fabric       (arg = hop count)
  kDeliver,      // packet arrives in dst NIC wire queue  (arg = bytes)
  kCrcCheck,     // receiver CRC verified                 (arg = 1 ok, 0 bad)
  kHandlerRun,   // receive handler starts/resumes        (arg = bytes avail)
  kExtract,      // fm_extract drains the receive queue   (arg = msgs drained)
  kRetransmit,   // go-back-N resend                      (arg = link seq)
  kDrop,         // packet dropped (fault or CRC/seq)     (arg = reason code)
  kMatch,        // MPI receive matched                   (arg = bytes)
  kMsgDone,      // full message delivered to the app     (arg = bytes)
  kRdmaWrite,    // NIC placed a remote-write chunk       (arg = bytes)
  kRdmaDone,     // registered RDMA target fully written  (arg = total bytes)
  kCollSubmit,   // host submitted a collective op        (arg = operand bytes)
  kCollCombine,  // NIC folded a child's partial          (arg = operand bytes)
  kCollForward,  // NIC forwarded a collective packet     (arg = dst node)
  kCollDone,     // collective completed at this node     (arg = operand bytes)
  kCount,
};

enum class Layer : std::uint8_t {
  kMpi,
  kFm2,
  kFm1,
  kNic,
  kFabric,
  kOther,
  kCount,
};

/// `arg` codes for EventType::kDrop.
inline constexpr std::uint64_t kDropFault = 1;  // injected fault
inline constexpr std::uint64_t kDropCrc = 2;    // CRC mismatch at receiver
inline constexpr std::uint64_t kDropSeq = 3;    // out-of-window link seq

const char* to_string(EventType t) noexcept;
const char* to_string(Layer l) noexcept;

/// One trace record. POD, 32 bytes, stored by value in the ring.
struct Event {
  sim::Ps t = 0;             // sim time of the event
  std::uint64_t msg_id = 0;  // 0 = not attributable to one message
  std::uint64_t arg = 0;     // per-type payload (see EventType)
  std::int16_t node = -1;    // -1 = fabric-wide
  Layer layer = Layer::kOther;
  EventType type = EventType::kCount;
};

/// Deterministic merge of per-shard trace streams from a parallel run
/// (myrinet/parallel_cluster.hpp): each stream is time-nondecreasing, and
/// ties merge in stream order. Shard assignment is fixed per cluster, so
/// the merged sequence is identical at every thread count.
std::vector<Event> merge_streams(
    const std::vector<std::vector<Event>>& streams);

class Tracer {
 public:
  /// Events per ring chunk. Chunks are recycled whole, oldest first.
  static constexpr std::size_t kChunkEvents = 4096;

  explicit Tracer(const sim::Engine& eng) : eng_(&eng) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Preallocate ring storage for ~`capacity_events` and start recording.
  /// Allocation happens here, never in record().
  void enable(std::size_t capacity_events = 1 << 18);
  void disable() noexcept { enabled_ = false; }

  /// Drop all recorded events (storage is kept for reuse).
  void clear() noexcept;

  /// Hot-path hook. Must stay cheap and branch-predictable when disabled:
  /// callers invoke it unconditionally from NIC/fabric/fm inner loops.
  void record(EventType type, Layer layer, int node, std::uint64_t msg_id,
              std::uint64_t arg = 0) {
    if (!enabled_) return;
    push(Event{eng_->now(), msg_id, arg, static_cast<std::int16_t>(node),
               layer, type});
  }

  /// Number of retained events, oldest first under at().
  std::size_t size() const noexcept { return size_; }
  const Event& at(std::size_t i) const noexcept;
  std::uint64_t dropped_events() const noexcept { return dropped_; }

  /// Copy of the retained events in record order (test/export convenience).
  std::vector<Event> events() const;

  /// Canonical cross-layer message id: layer tag + endpoints + per-source
  /// sequence number, packed so sender and receiver derive the same id
  /// independently. 12-bit node ids (4096 nodes) and 36-bit sequence
  /// numbers are far beyond anything the simulator instantiates.
  static constexpr std::uint64_t msg_id(int src, int dst, Layer layer,
                                        std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(layer) & 0xF) << 60 |
           (static_cast<std::uint64_t>(src) & 0xFFF) << 48 |
           (static_cast<std::uint64_t>(dst) & 0xFFF) << 36 |
           (seq & 0xFFFFFFFFFull);
  }

 private:
  using Chunk = std::array<Event, kChunkEvents>;

  void push(const Event& e);

  const sim::Engine* eng_;
  bool enabled_ = false;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t head_chunk_ = 0;  // chunk holding the oldest event
  std::size_t head_off_ = 0;    // offset of the oldest event in it
  std::size_t tail_chunk_ = 0;  // chunk being filled
  std::size_t tail_off_ = 0;    // next free slot in it
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace fmx::trace
