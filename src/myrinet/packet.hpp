// Wire-level packet. The payload is the messaging layer's packet (header +
// data) carried as real bytes; the fabric really computes and checks CRC-32
// so injected bit errors are genuinely detected, not flagged.
//
// The payload travels as a refcounted BufferRef slice: switch hops, the
// NIC's go-back-N retention window and fault-injected duplicates all share
// one underlying block. The CRC is sealed into the block's memo at make()
// time, so downstream crc_ok() checks are a 32-bit compare unless someone
// mutated the bytes (copy-on-write invalidates the memo on exactly the
// reference that was written through).
#pragma once

#include <cstdint>
#include <utility>

#include "common/buffer.hpp"
#include "common/buffer_ref.hpp"
#include "common/crc32.hpp"
#include "sim/time.hpp"

namespace fmx::net {

/// What the destination NIC's control program does with the packet.
///  - kData: DMA into the host receive ring; the messaging layer extracts it.
///  - kRdmaWrite: remote-memory write. The payload carries no FM header; the
///    NIC places the bytes directly into the registered buffer identified by
///    rkey at rdma_offset and the host never touches them (true zero-copy).
///  - kColl: NIC-offloaded collective step (myrinet/coll.hpp). The payload
///    opens with a CollHeader followed by the partial values; the receiving
///    NIC combines/forwards it inside its own control program and the host
///    is never interrupted on interior tree steps.
enum class PacketKind : std::uint8_t {
  kData = 0,
  kRdmaWrite = 1,
  kColl = 2,
};

// Note: these types travel by value through coroutines, so they carry
// user-declared constructors (see the toolchain note in sim/task.hpp).
struct WirePacket {
  WirePacket() = default;

  int src = -1;
  int dst = -1;
  BufferRef payload;
  std::uint32_t crc = 0;

  // RDMA remote-write addressing (kind == kRdmaWrite only). On the real
  // wire these ride a small extra header (FabricParams::rdma_hdr_bytes,
  // charged in serialization time); in the simulator they travel out of
  // band like src/dst so eager packets are byte-identical to before.
  PacketKind kind = PacketKind::kData;
  std::uint32_t rkey = 0;         ///< destination registration handle
  std::uint32_t rdma_offset = 0;  ///< byte offset into the registered buffer

  /// ECMP flow label: multipath topologies hash (src, dst, flow) to pick
  /// among equal-cost paths (myrinet/topo.hpp). Flow 0 — the default every
  /// messaging layer uses — gives each (src, dst) pair one consistent path,
  /// preserving FM's in-order delivery assumption while still spreading
  /// distinct pairs across the aggregation/core layers; layers that
  /// tolerate reordering may vary it per message.
  std::uint32_t flow = 0;

  // Link-level reliability (go-back-N extension; NicParams::reliable_link).
  std::uint32_t link_seq = 0;   ///< per (src,dst) sequence number
  std::uint32_t ack = 0;        ///< cumulative "next expected" for dst->src
  bool has_ack = false;
  bool ack_only = false;        ///< pure control packet, no data

  /// Tracing metadata: the cross-layer message id this packet belongs to
  /// (trace::Tracer::msg_id). Not wire bytes — carried out of band like
  /// src/dst, so it never affects serialization time or CRC.
  std::uint64_t trace_id = 0;

  static WirePacket make(int src, int dst, BufferRef payload) {
    WirePacket p;
    p.src = src;
    p.dst = dst;
    p.payload = std::move(payload);
    p.crc = p.payload.crc();  // seals the block's memo
    return p;
  }

  bool crc_ok() const { return payload.crc() == crc; }
};
// Hot structs, moved by value through channels once or more per packet: a
// field that grows one must edit its number on purpose.
static_assert(sizeof(WirePacket) == 64);

/// A packet as it appears in the host receive region after NIC DMA.
struct RxPacket {
  RxPacket() = default;
  RxPacket(int src_, BufferRef payload_, sim::Ps arrived_)
      : src(src_), payload(std::move(payload_)), arrived(arrived_) {}

  int src = -1;
  BufferRef payload;
  sim::Ps arrived = 0;  ///< time the packet landed in host memory
  std::uint64_t trace_id = 0;  ///< tracing metadata, threaded from the wire
  // RDMA addressing, threaded from the wire packet; kRdmaWrite packets are
  // consumed inside the NIC (placed into the registered buffer) and never
  // reach the host ring, but they ride the same rx pipeline stages.
  PacketKind kind = PacketKind::kData;
  std::uint32_t rkey = 0;
  std::uint32_t rdma_offset = 0;
  /// Piggybacked flow-control credits already harvested from the header.
  /// Replaces the old strip-by-rewrite (which would force a COW clone on
  /// every parked packet sharing its block with the sender's retention).
  bool credits_applied = false;
};
static_assert(sizeof(RxPacket) == 56);

}  // namespace fmx::net
