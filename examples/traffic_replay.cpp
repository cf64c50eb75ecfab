// Workload replay: the paper's motivation (§2.1) is that real network
// traffic is dominated by SHORT messages (Gusella: most packets < 576 B,
// 60% of those <= 50 B; Kay & Pasquale: >99% of TCP packets < 200 B).
//
// This example generates a Gusella-style message-size mix and replays it
// over both FM generations' MPI layers, showing where the deliverable
// bandwidth really comes from when the workload is realistic rather than
// megabyte-sized benchmark messages.
//
// Build & run:  ./build/examples/traffic_replay
#include <cstdio>
#include <memory>
#include <vector>

#include "mpi/mpi_fm1.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/random.hpp"
#include "workload/traffic.hpp"

using namespace fmx;
using mpi::Comm;
using sim::Task;

namespace {

// The empirical short-message mix of Gusella's Ethernet study (§2.1),
// from the reusable workload module.
std::vector<std::size_t> make_workload(int n, std::uint64_t seed) {
  return workload::generate_sizes(
      workload::SizeDistribution::gusella_ethernet(), n, seed);
}

struct ReplayResult {
  double seconds;
  std::size_t total_bytes;
  int messages;
};

// MpiT layers over an EndpointT (fm1::Endpoint or fm2::Endpoint).
template <typename EndpointT, typename MpiT>
ReplayResult replay(const net::ClusterParams& platform,
                    const std::vector<std::size_t>& sizes) {
  net::ParallelCluster cluster(platform, 1);
  sim::Engine& engine = cluster.shard_engine(0);
  EndpointT ep0(cluster.node(0), cluster.fabric_of(0));
  EndpointT ep1(cluster.node(1), cluster.fabric_of(1));
  MpiT tx(ep0), rx(ep1);

  sim::Ps t_end = 0;
  engine.spawn([](Comm& c, const std::vector<std::size_t>& sz) -> Task<void> {
    for (std::size_t i = 0; i < sz.size(); ++i) {
      Bytes m = pattern_bytes(i, sz[i]);
      co_await c.send(ByteSpan{m}, 1, 0);
    }
  }(tx, sizes));
  engine.spawn([](sim::Engine& e, Comm& c, const std::vector<std::size_t>& sz,
                  sim::Ps& end) -> Task<void> {
    for (std::size_t i = 0; i < sz.size(); ++i) {
      Bytes buf(sz[i]);
      co_await c.recv(MutByteSpan{buf}, 0, 0);
      if (pattern_mismatch(i, 0, ByteSpan{buf}) != -1) {
        throw std::runtime_error("payload corrupted in replay");
      }
    }
    end = e.now();
  }(engine, rx, sizes, t_end));
  cluster.run();

  ReplayResult r;
  r.seconds = sim::to_seconds(t_end);
  r.total_bytes = 0;
  for (auto s : sizes) r.total_bytes += s;
  r.messages = static_cast<int>(sizes.size());
  return r;
}

}  // namespace

int main() {
  constexpr int kMessages = 2000;
  auto sizes = make_workload(kMessages, /*seed=*/4242);
  std::size_t total = 0, shorties = 0;
  for (auto s : sizes) {
    total += s;
    if (s <= 200) ++shorties;
  }
  std::printf("workload: %d messages, %zu bytes total, mean %.0f B, "
              "%.0f%% <= 200 B\n\n",
              kMessages, total, double(total) / kMessages,
              100.0 * shorties / kMessages);

  auto r1 = replay<fm1::Endpoint, mpi::MpiFm1>(net::sparc_fm1_cluster(2),
                                               sizes);
  auto r2 = replay<fm2::Endpoint, mpi::MpiFm2>(net::ppro_fm2_cluster(2),
                                               sizes);

  std::printf("%-28s %12s %14s %14s\n", "stack", "time (ms)", "msg/s",
              "delivered BW");
  auto row = [&](const char* name, const ReplayResult& r) {
    std::printf("%-28s %12.2f %14.0f %14s\n", name, r.seconds * 1e3,
                r.messages / r.seconds,
                format_mbps(r.total_bytes / r.seconds).c_str());
  };
  row("MPI on FM 1.x (Sparc)", r1);
  row("MPI on FM 2.x (PPro)", r2);
  std::printf("\nShort-message-dominated traffic is where interface design "
              "pays: the FM 2.x stack moves the same mix %.1fx faster.\n",
              r1.seconds / r2.seconds);
  return 0;
}
