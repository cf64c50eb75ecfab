// Trace exporters: Chrome about://tracing JSON, a run-to-run digest for
// golden-trace tests, and the per-message latency breakdown that mirrors
// the paper's Table 2 cost columns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace fmx::trace {

/// Full trace as a Chrome tracing JSON document ({"traceEvents": [...]}).
/// Point events become instants, dma_start/dma_end pairs become complete
/// ("X") slices, and every finished message gets an async span keyed by
/// its message id. Events are sorted by timestamp.
std::string chrome_trace_json(const Tracer& tracer);

/// chrome_trace_json() to a file. Returns false on I/O failure.
bool write_chrome_trace(const Tracer& tracer, const std::string& path);

/// Order-sensitive FNV-1a digest over every retained event's fields.
/// Two runs of a deterministic workload must produce equal digests.
std::uint64_t trace_digest(const Tracer& tracer);

/// Where one message's latency went, all in sim picoseconds. For
/// multi-packet messages the columns describe the pipelined lifetime:
/// `handler` spans first handler run to message completion and therefore
/// overlaps the wire time of trailing packets — that overlap is exactly
/// the layer-interleaving the paper argues for.
struct MessageBreakdown {
  std::uint64_t msg_id = 0;
  std::uint64_t bytes = 0;   // from the msg_done event
  sim::Ps t_start = 0;       // first send_enqueue
  sim::Ps host = 0;          // send_enqueue -> first wire injection
  sim::Ps wire = 0;          // first injection -> first delivery
  sim::Ps queue = 0;         // first delivery -> first handler run
  sim::Ps handler = 0;       // first handler run -> msg_done
  sim::Ps total = 0;         // send_enqueue -> msg_done
};

/// One row per message that both started (send_enqueue) and finished
/// (msg_done) inside the trace, in completion order.
std::vector<MessageBreakdown> per_message_breakdown(const Tracer& tracer);

struct BreakdownSummary {
  std::uint64_t messages = 0;
  double host_us = 0;     // mean, microseconds
  double wire_us = 0;
  double queue_us = 0;
  double handler_us = 0;
  double total_us = 0;
  // End-to-end latency quantiles, extracted from a fixed-bucket
  // trace::Histogram over the per-message totals (bucket-interpolated —
  // see Histogram::quantile). The tail columns are where contention shows
  // long before the mean moves.
  double total_p50_us = 0;
  double total_p99_us = 0;
  double total_p999_us = 0;
};

BreakdownSummary summarize_breakdown(const Tracer& tracer);

/// FMX_TRACE=<path> support: value of the env var, or nullptr if unset.
/// Examples/benches call env_trace_path() once to decide whether to
/// enable the tracer and where to dump the JSON on exit.
const char* env_trace_path() noexcept;

}  // namespace fmx::trace
