// Cost-model parameters for the simulated cluster. Two calibrated presets
// reproduce the paper's platforms:
//   sparc_fm1_cluster()  — SPARCstation + SBus + first-generation Myrinet
//                          (FM 1.x platform: 14 us latency, 17.6 MB/s peak)
//   ppro_fm2_cluster()   — 200 MHz Pentium Pro + PCI + Myrinet
//                          (FM 2.x platform: 11 us latency, 77 MB/s peak)
// Calibration rationale is documented per-constant below and summarized in
// EXPERIMENTS.md. The protocol *logic* above these numbers is exact; only
// the time constants are fitted.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace fmx::net {

using sim::Ps;

/// Registration (pin-down) cache for the RDMA large-message path. Pinning
/// a buffer is a syscall + driver page-table walk — tens of microseconds —
/// so registrations are cached and unpinned lazily (LRU) like FM's
/// descendants (VIA, IB verbs, pMR) all do. Costs calibrated to the
/// mlock+driver numbers contemporaries reported: ~10 us base plus ~1 us
/// per page to pin, ~0.5 us per page to unpin on eviction.
struct RegCacheParams {
  std::size_t capacity_bytes = 4 * 1024 * 1024;  ///< pinned-memory budget
  std::size_t page_bytes = 4096;
  Ps pin_base = sim::us(10);       ///< per-registration syscall cost (miss)
  Ps pin_per_page = sim::us(1);    ///< driver work per newly pinned page
  Ps unpin_per_page = sim::ns(500);///< eviction work per unpinned page
  Ps lookup = sim::ns(200);        ///< cache probe (hit or miss)
};

/// Host CPU + memory-system cost model.
struct HostParams {
  double cpu_hz = 200e6;  ///< cycles <-> time conversions

  /// memcpy cost: fixed setup plus per-byte, with a second (slower) regime
  /// past the cache threshold — the classic two-slope copy curve.
  Ps memcpy_setup = sim::ns(100);
  double memcpy_ps_per_byte = 5'000;        // 5 ns/B = 200 MB/s
  double memcpy_ps_per_byte_uncached = 10'000;
  std::size_t memcpy_cache_threshold = 64 * 1024;

  Ps call_overhead = sim::ns(100);      ///< generic library-call cost
  Ps handler_dispatch = sim::ns(150);   ///< handler table lookup + invoke
  Ps poll_gap = sim::ns(200);           ///< one empty poll of the rx ring

  RegCacheParams reg;  ///< pin-down cache (RDMA rendezvous path)
};

/// I/O bus (SBus / PCI) model: a shared, FIFO-arbitrated resource.
struct IoBusParams {
  Ps dma_setup = sim::ns(500);      ///< per-DMA-transaction setup
  double dma_ps_per_byte = 8'000;   ///< 8 ns/B = 125 MB/s (PCI-ish)
  Ps pio_setup = sim::ns(200);      ///< first programmed-I/O word
  double pio_ps_per_byte = 20'000;  ///< 20 ns/B = 50 MB/s (PIO is slow)
};

/// LANai-style network interface.
struct NicParams {
  std::size_t mtu_payload = 1024;   ///< max wire-packet payload (FM packet)
  std::size_t sram_rx_slots = 8;    ///< inbound SRAM buffering (slack)
  std::size_t sram_tx_slots = 4;    ///< outbound SRAM staging (DMA/wire overlap)
  std::size_t tx_queue_slots = 16;  ///< send descriptor queue depth
  std::size_t host_ring_slots = 64; ///< host receive-region packet slots
  Ps per_packet_tx = sim::us(1.0);  ///< control-program cost per sent packet
  Ps per_packet_rx = sim::us(1.0);  ///< control-program cost per recv packet

  /// NIC-offloaded collectives (myrinet/coll.hpp): control-program cost per
  /// collective step processed on the NIC (combine bookkeeping, fan-out
  /// descriptor build) plus the per-byte reduction arithmetic on the LANai.
  /// An arriving collective packet is also charged coll_op instead of
  /// per_packet_rx on the receive path: it is parsed and consumed entirely
  /// in NIC SRAM, so the host-DMA descriptor and receive-ring bookkeeping
  /// that per_packet_rx models never happen. (Transmit keeps the full
  /// per_packet_tx — wire injection is serial and backs the parallel
  /// engine's fresh-transmit lookahead floor.) These steps are much cheaper
  /// than a host round-trip — that asymmetry is the entire point of
  /// forwarding collectives NIC-to-NIC.
  Ps coll_op = sim::ns(400);
  double coll_ps_per_byte = 4'000;  ///< 4 ns/B reduce arithmetic (slow core)

  /// Link-level go-back-N retransmission (extension; off by default —
  /// Myrinet's bit error rate made FM treat the fabric as reliable, this
  /// makes that assumption explicit and removable).
  bool reliable_link = false;
  Ps retransmit_timeout = sim::us(200);
  int retransmit_window = 32;       ///< unacked packets per destination
  Ps ack_delay = sim::us(5);        ///< ack coalescing window
};

/// Switch interconnection pattern; geometry lives in myrinet/topo.hpp.
enum class TopologyKind : std::uint8_t {
  kChain = 0,    ///< crossbars of hosts_per_switch ports, chained
  kFatTree = 1,  ///< 3-level k-ary fat-tree/Clos (fat_tree_radix ports)
};

/// Physical link + switch fabric.
struct FabricParams {
  double link_ps_per_byte = 12'500;   ///< 12.5 ns/B = 80 MB/s per link
  Ps link_latency = sim::ns(300);     ///< cable flight + port latency
  Ps switch_latency = sim::ns(550);   ///< crossbar routing decision per hop
  std::size_t frame_overhead = 9;     ///< type+route+framing bytes per packet
  std::size_t crc_bytes = 4;
  /// Extra wire header on remote-write (RDMA) packets only: rkey + offset +
  /// length + op type. Charged in serialization time for kRdmaWrite packets;
  /// eager/data packets are byte-identical with or without the RDMA path.
  std::size_t rdma_hdr_bytes = 16;
  int hosts_per_switch = 8;           ///< larger clusters chain switches

  TopologyKind topology = TopologyKind::kChain;
  /// Fat-tree switch radix k (even): k pods, k/2 edge + k/2 aggregation
  /// switches per pod, (k/2)^2 cores. k=16 hosts 1024 at oversubscription 1.
  int fat_tree_radix = 8;
  /// Hosts per edge-switch = (k/2) * oversubscription: o hosts contend for
  /// each edge uplink, so o:1 fan-in saturates at 1/o of the host rate —
  /// the severity dial for incast experiments.
  int oversubscription = 1;

  /// Per-size-class byte budget the cluster buffer pool retains (see
  /// common/buffer_pool.hpp). The 4 MiB default serves every preset,
  /// fat_tree_cluster's 1024 hosts included; only the fabric_scale bench
  /// raises it, for its much larger live-buffer high water.
  std::size_t pool_retain_bytes_per_class = std::size_t{4} << 20;
};

struct ClusterParams {
  int n_hosts = 2;
  HostParams host;
  IoBusParams bus;
  NicParams nic;
  FabricParams fabric;
};

/// FM 1.x platform: SPARCstation-class host on SBus.
/// Calibration targets (paper §3): one-way latency ~14 us, peak ~17.6 MB/s,
/// N1/2 = 54 B with 128 B packets; bottleneck is send-side programmed I/O
/// across the SBus.
ClusterParams sparc_fm1_cluster(int n_hosts = 2);

/// FM 2.x platform: 200 MHz Pentium Pro on PCI.
/// Calibration targets (paper §4.2): one-way latency ~11 us, peak ~77 MB/s,
/// N1/2 < 256 B.
ClusterParams ppro_fm2_cluster(int n_hosts = 2);

/// Datacenter-style preset: the FM 2.x host/NIC model on a k-ary fat-tree.
/// Picks the smallest even radix (at the given oversubscription) that
/// hosts n_hosts, unless `radix` is given explicitly. Defaults otherwise
/// match ppro_fm2_cluster.
ClusterParams fat_tree_cluster(int n_hosts, int radix = 0, int oversub = 1);

}  // namespace fmx::net
