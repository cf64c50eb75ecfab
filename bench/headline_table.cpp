// Headline metrics table: every latency / peak-bandwidth / N1/2 number the
// paper quotes in the text, paper-vs-measured. This is the one-stop
// reproduction summary (EXPERIMENTS.md is generated from this output).
// Exits 1 when any row falls outside its band, so ctest gates it.
#include <cstdio>

#include "bench_util.hpp"

using namespace fmx;
using namespace fmx::bench;

int main() {
  auto sparc = net::sparc_fm1_cluster(2);
  auto ppro = net::ppro_fm2_cluster(2);

  std::puts("=== Headline reproduction table ===\n");
  std::printf("%-22s %-26s %-14s %-14s\n", "metric", "paper", "measured",
              "verdict");
  bool all_in_band = true;
  auto row = [&all_in_band](const char* metric, const char* paper,
                            double measured, const char* unit, double lo,
                            double hi) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.1f %s", measured, unit);
    bool ok = measured >= lo && measured <= hi;
    all_in_band = all_in_band && ok;
    std::printf("%-22s %-26s %-14s %-14s\n", metric, paper, buf,
                ok ? "in band" : "OUT OF BAND");
  };

  // FM 1.x (§3, Figure 3b)
  Measurement fm1_m = fm1_bandwidth(sparc, 2048);
  double fm1_peak = fm1_m.bandwidth_mbs;
  double fm1_lat = fm1_latency_us(sparc, 16);
  double fm1_n12 = half_power_point(
      [&](std::size_t s) { return fm1_bandwidth(sparc, s).bandwidth_mbs; },
      fm1_peak);
  row("FM 1.x latency", "14 us", fm1_lat, "us", 11, 17);
  row("FM 1.x peak BW", "17.6 MB/s", fm1_peak, "MB/s", 15.8, 19.4);
  row("FM 1.x N1/2", "54 B", fm1_n12, "B", 40, 70);

  // FM 2.x (§4.2, Figure 5)
  Measurement fm2_m = fm2_bandwidth(ppro, 8192);
  double fm2_peak = fm2_m.bandwidth_mbs;
  double fm2_lat = fm2_latency_us(ppro, 16);
  double fm2_n12 = half_power_point(
      [&](std::size_t s) { return fm2_bandwidth(ppro, s).bandwidth_mbs; },
      fm2_peak);
  row("FM 2.x latency", "11 us", fm2_lat, "us", 9, 13);
  row("FM 2.x peak BW", "77 MB/s", fm2_peak, "MB/s", 69, 85);
  row("FM 2.x N1/2", "< 256 B", fm2_n12, "B", 0, 256);

  // MPI-FM on FM 1.x (§3.2, Figure 4)
  double mpi1 = mpi_bandwidth(MpiGen::kFm1, sparc, 2048).bandwidth_mbs;
  double f1 = fm1_bandwidth(sparc, 2048).bandwidth_mbs;
  row("MPI-FM1 peak eff", "<= 35% of FM", 100.0 * mpi1 / f1, "%", 15, 40);
  row("MPI-FM1 latency", "~19 us", mpi_latency_us(MpiGen::kFm1, sparc, 16),
      "us", 15, 27);

  // MPI-FM on FM 2.x (§4.2, Figure 6)
  double mpi2_16 = mpi_bandwidth(MpiGen::kFm2, ppro, 16).bandwidth_mbs;
  double f2_16 = fm2_bandwidth(ppro, 16).bandwidth_mbs;
  double mpi2_2k = mpi_bandwidth(MpiGen::kFm2, ppro, 2048).bandwidth_mbs;
  double f2_2k = fm2_bandwidth(ppro, 2048).bandwidth_mbs;
  row("MPI-FM2 eff @16B", "over 70%", 100.0 * mpi2_16 / f2_16, "%", 62, 95);
  row("MPI-FM2 eff @2KB", "~90% ('70 of 77')", 100.0 * mpi2_2k / f2_2k, "%",
      85, 99);
  row("MPI-FM2 peak BW", "70 MB/s", mpi2_2k, "MB/s", 62, 78);
  row("MPI-FM2 latency", "17 us", mpi_latency_us(MpiGen::kFm2, ppro, 16),
      "us", 12, 20);

  // Data-path cost per message during the 200-message bandwidth streams.
  // Copies are simulated memcpy charges; allocs are buffer-pool misses
  // (fresh heap allocations). Allocs should drop to ~0 once the pool is
  // warm — a nonzero steady-state value means the pool is being bypassed.
  std::puts("\n=== Per-message data-path costs (bandwidth streams) ===\n");
  std::printf("%-22s %12s %12s %12s %12s\n", "layer", "copies/msg tx",
              "copies/msg rx", "allocs/msg tx", "allocs/msg rx");
  auto cost_row = [](const char* layer, const Measurement& m, int n_msgs) {
    std::printf("%-22s %12.2f %12.2f %12.2f %12.2f\n", layer,
                static_cast<double>(m.copies_send) / n_msgs,
                static_cast<double>(m.copies_recv) / n_msgs,
                static_cast<double>(m.allocs_send) / n_msgs,
                static_cast<double>(m.allocs_recv) / n_msgs);
  };
  cost_row("FM 1.x @2KB", fm1_m, 200);
  cost_row("FM 2.x @8KB", fm2_m, 200);

  // Per-message latency breakdown from the cross-layer tracer: where one
  // message's lifetime goes (mirrors the paper's Table 2 cost structure).
  // FM 1.x queue time includes reassembly (handler only runs after the
  // last packet); FM 2.x handler time overlaps trailing-packet wire time —
  // that overlap is the layer-interleaving win.
  std::puts("\n=== Per-message latency breakdown (traced streams, mean) ===");
  print_breakdown_rows(
      "",
      {{"FM 1.x @2KB", fm1_breakdown(sparc, 2048)},
       {"FM 2.x @2KB", fm2_breakdown(ppro, 2048)},
       {"FM 2.x @8KB", fm2_breakdown(ppro, 8192)}});

  std::puts("\nbands are documented in EXPERIMENTS.md; absolute numbers are\n"
            "calibrated, shapes and ratios are emergent from protocol code.");
  return all_in_band ? 0 : 1;
}
