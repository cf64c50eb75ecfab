// Figure 3: FM 1.x overhead on the Sparc/SBus/Myrinet platform.
//  (a) build-up of the send path: link management only, + I/O bus
//      management, + flow control — measured with a raw rig driving the
//      NIC directly, one packet per message (as in the paper's staged
//      experiment);
//  (b) the complete FM 1.1 (with buffer management, 128 B packets):
//      bandwidth curve plus the headline latency / N1/2 numbers
//      (paper: 14 us, 17.6 MB/s peak, N1/2 = 54 B).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/sync.hpp"

using namespace fmx;
using namespace fmx::bench;
using sim::Engine;
using sim::Task;

namespace {

enum class Stage { kLinkOnly, kPlusIoBus, kPlusFlowControl };

// Raw-rig bandwidth: the "simplest code needed to operate the link DMAs",
// then with the I/O bus on the critical path, then with a credit protocol.
double raw_stage_bandwidth(Stage stage, std::size_t msg, int n_msgs = 300) {
  net::ClusterParams p = net::sparc_fm1_cluster(2);
  p.nic.mtu_payload = 2048;  // the staged rig sends message-sized packets
  if (stage == Stage::kLinkOnly) {
    // Pretend the data is already in NIC SRAM: free bus.
    p.bus.dma_setup = 0;
    p.bus.dma_ps_per_byte = 0;
  }
  net::ParallelCluster cluster(p, 1);
  Engine& eng = cluster.shard_engine(0);

  constexpr int kCredits = 8;
  constexpr int kCreditBatch = 4;
  auto credits = std::make_shared<sim::Semaphore>(
      eng, stage == Stage::kPlusFlowControl ? kCredits : 1 << 20);

  sim::Ps t_end = 0;
  eng.spawn([](net::ParallelCluster& c, std::size_t sz, int n, Stage st,
               std::shared_ptr<sim::Semaphore> cr) -> Task<void> {
    (void)sz;
    auto& node = c.node(0);
    for (int i = 0; i < n; ++i) {
      co_await cr->acquire();
      Bytes pkt(sz);
      if (st != Stage::kLinkOnly) {
        // FM 1.x moves send data with programmed I/O across the SBus.
        co_await node.bus().pio(pkt.size());
      }
      co_await node.nic().enqueue(net::SendDescriptor(
          1, BufferRef::copy_of(ByteSpan{pkt}), /*fetch_dma=*/false));
    }
  }(cluster, msg, n_msgs, stage, credits));
  eng.spawn([](Engine& e, net::ParallelCluster& c, int n, Stage st,
               std::shared_ptr<sim::Semaphore> cr,
               sim::Ps& end) -> Task<void> {
    (void)cr;
    auto& node = c.node(1);
    int freed = 0;
    for (int i = 0; i < n; ++i) {
      (void)co_await node.nic().host_ring().pop();
      if (st == Stage::kPlusFlowControl && ++freed == 4) {
        freed = 0;
        // Return a batch of credits with a small control packet.
        co_await node.nic().enqueue(net::SendDescriptor(
            0, BufferRef::copy_of(ByteSpan{Bytes(16)}), false));
      }
    }
    end = e.now();
  }(eng, cluster, n_msgs, stage, credits, t_end));
  // Credit packets arriving back at node 0 top the semaphore up.
  eng.spawn_daemon([](net::ParallelCluster& c,
                      std::shared_ptr<sim::Semaphore> cr) -> Task<void> {
    for (;;) {
      (void)co_await c.node(0).nic().host_ring().pop();
      cr->release(kCreditBatch);
    }
  }(cluster, credits));
  cluster.run();
  return static_cast<double>(msg) * n_msgs / sim::to_seconds(t_end) / 1e6;
}

}  // namespace

int main() {
  auto sizes = paper_sizes(16, 512);
  std::puts("=== Figure 3a: FM 1.x overhead breakdown (MB/s) ===\n");
  std::printf("%10s %12s %14s %14s\n", "msg bytes", "link mgmt",
              "+ I/O bus", "+ flow ctl");
  for (auto s : sizes) {
    std::printf("%10zu %12.2f %14.2f %14.2f\n", s,
                raw_stage_bandwidth(Stage::kLinkOnly, s),
                raw_stage_bandwidth(Stage::kPlusIoBus, s),
                raw_stage_bandwidth(Stage::kPlusFlowControl, s));
  }

  std::puts("\n=== Figure 3b: complete FM 1.1 (with buffer management) ===\n");
  auto platform = net::sparc_fm1_cluster(2);
  std::printf("%10s %12s\n", "msg bytes", "FM 1.1 MB/s");
  for (auto s : sizes) {
    std::printf("%10zu %12.2f\n", s, fm1_bandwidth(platform, s).bandwidth_mbs);
  }
  double peak = fm1_bandwidth(platform, 2048).bandwidth_mbs;
  double lat = fm1_latency_us(platform, 16);
  double nhalf = half_power_point(
      [&](std::size_t s) { return fm1_bandwidth(platform, s).bandwidth_mbs; },
      peak);
  std::printf("\nheadline   measured: latency %.1f us, peak %.1f MB/s, "
              "N1/2 = %.0f B\n", lat, peak, nhalf);
  std::puts("headline paper (§3):  latency 14 us,  peak 17.6 MB/s, "
            "N1/2 = 54 B");
  return 0;
}
