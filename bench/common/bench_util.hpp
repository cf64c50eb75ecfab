// Shared measurement harness for the figure-reproduction benchmarks.
// Bandwidth tests stream a window of messages end to end and divide payload
// bytes by elapsed simulated time; latency tests halve a ping-pong round
// trip — the same methodology as the paper's microbenchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fm1/fm1.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/params.hpp"
#include "trace/export.hpp"

namespace fmx::bench {

struct Measurement {
  double bandwidth_mbs = 0;   // payload MB/s (1 MB = 1e6 B)
  double latency_us = 0;      // one-way, when measured
  std::uint64_t copies_recv = 0;
  std::uint64_t copies_send = 0;
  // Buffer-pool misses (fresh data-path heap allocations) during the
  // measured region; zero once the pool is warm.
  std::uint64_t allocs_send = 0;
  std::uint64_t allocs_recv = 0;
};

/// Raw FM 1.x streaming bandwidth for messages of `msg_size` bytes.
Measurement fm1_bandwidth(const net::ClusterParams& cp, std::size_t msg_size,
                          int n_msgs = 200, fm1::Config cfg = {});

/// FM 1.x one-way latency (ping-pong / 2) for `msg_size`-byte messages.
double fm1_latency_us(const net::ClusterParams& cp, std::size_t msg_size,
                      int rounds = 50, fm1::Config cfg = {});

/// Raw FM 2.x streaming bandwidth.
Measurement fm2_bandwidth(const net::ClusterParams& cp, std::size_t msg_size,
                          int n_msgs = 200, fm2::Config cfg = {});

/// FM 2.x one-way latency.
double fm2_latency_us(const net::ClusterParams& cp, std::size_t msg_size,
                      int rounds = 50, fm2::Config cfg = {});

/// MPI bandwidth: a window of pre-posted irecvs (standard methodology),
/// sender streams `n_msgs` messages. Backend selected by template.
enum class MpiGen { kFm1, kFm2 };
Measurement mpi_bandwidth(MpiGen gen, const net::ClusterParams& cp,
                          std::size_t msg_size, int n_msgs = 100);

/// MPI one-way latency (ping-pong / 2).
double mpi_latency_us(MpiGen gen, const net::ClusterParams& cp,
                      std::size_t msg_size, int rounds = 40);

/// Per-message latency breakdown (host / wire / queue / handler columns,
/// from the cross-layer tracer) for a traced streaming run.
trace::BreakdownSummary fm1_breakdown(const net::ClusterParams& cp,
                                      std::size_t msg_size, int n_msgs = 100,
                                      fm1::Config cfg = {});
trace::BreakdownSummary fm2_breakdown(const net::ClusterParams& cp,
                                      std::size_t msg_size, int n_msgs = 100,
                                      fm2::Config cfg = {});

/// Print breakdown summaries as a table, one row per (label, summary).
void print_breakdown_rows(
    const std::string& title,
    const std::vector<std::pair<std::string, trace::BreakdownSummary>>& rows);

/// N1/2: smallest message size (bytes, searched over `grid`) whose bandwidth
/// reaches half of `peak_mbs`. Returns the interpolated size.
double half_power_point(const std::function<double(std::size_t)>& bw_of,
                        double peak_mbs, std::size_t lo = 4,
                        std::size_t hi = 8192);

/// The message-size grid the paper's figures use.
std::vector<std::size_t> paper_sizes(std::size_t lo = 16,
                                     std::size_t hi = 2048);

/// Median of `v` (by copy; v may be unsorted). 0 for an empty vector.
double median(std::vector<double> v);

/// An ordered JSON object for a bench artifact. Each number keeps the
/// printf format it was written with, so a value that does not change
/// between runs prints the same text every time.
class Json {
 public:
  /// A number printed with `fmt` ("%.3f", "%g", ...).
  Json& num(const char* key, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  Json& count(const char* key, std::uint64_t v);
  Json& str(const char* key, const std::string& v);
  /// A 64-bit digest, as a quoted 16-digit hex string.
  Json& hex(const char* key, std::uint64_t v);
  Json& flag(const char* key, bool v);
  /// The nested object `key`, created on first use.
  Json& obj(const char* key);
  /// A new row appended to the array `key`. Rows print one per line.
  Json& row(const char* key);

 private:
  friend struct Artifact;

  struct Entry {
    std::string key;
    std::string text;                         // a leaf's printed value
    std::unique_ptr<Json> object;             // or a nested object
    std::vector<std::unique_ptr<Json>> rows;  // or an array of rows
    bool is_array = false;
  };
  Entry& entry(const char* key);
  Json& leaf(const char* key, std::string text);
  bool empty() const { return entries_.empty(); }
  void render(std::string& out, int indent) const;
  void render_row(std::string& out) const;

  std::vector<Entry> entries_;
};

/// A bench's JSON artifact. `meta` (cpus, cpu_model) is filled by the
/// writer. `config` holds the run's parameters; `sim` every value that is
/// identical across repeated runs and thread counts; `wall` everything
/// else. scripts/bench_check.py compares `sim` exactly against the
/// committed baseline when `config` matches. A row array split across
/// `sim` and `wall` repeats its identifying field (threads, preset/ranks/op,
/// bytes, layer) in both, so the halves can be rejoined.
struct Artifact {
  Json config, sim, wall;

  /// Writes the artifact to `path` and prints "wrote <path>". Returns
  /// false, after printing the error, when the file cannot be written.
  bool write(const std::string& path) const;
};

}  // namespace fmx::bench
