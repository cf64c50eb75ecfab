#include "trace/export.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "trace/metrics.hpp"

namespace fmx::trace {
namespace {

// One JSON line queued for emission; sorted by (ts, seq) so the file is
// monotonic in ts even though "X" slices are only known at their end.
struct Line {
  sim::Ps ts;
  std::size_t seq;
  std::string json;
};

std::string esc_id(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

int event_pid(const Event& e) { return e.node >= 0 ? e.node : 1000; }

void append_common(std::ostringstream& os, const Event& e) {
  os << "\"ts\":" << sim::to_us(e.t) << ",\"pid\":" << event_pid(e)
     << ",\"tid\":" << static_cast<int>(e.layer);
}

struct MsgSpan {
  bool started = false;
  bool done = false;
  sim::Ps t_first = 0;
  sim::Ps t_done = 0;
  int first_node = 0;
  int done_node = 0;
  Layer first_layer = Layer::kOther;
  std::uint64_t bytes = 0;
};

}  // namespace

std::string chrome_trace_json(const Tracer& tracer) {
  std::vector<Event> evs = tracer.events();

  // Pass 1: message lifetimes (for async spans) and node/layer presence
  // (for metadata name records).
  std::map<std::uint64_t, MsgSpan> msgs;
  std::map<int, bool> pids;
  for (const Event& e : evs) {
    pids[event_pid(e)] = true;
    if (e.msg_id == 0) continue;
    MsgSpan& m = msgs[e.msg_id];
    if (!m.started) {
      m.started = true;
      m.t_first = e.t;
      m.first_node = event_pid(e);
      m.first_layer = e.layer;
    }
    if (e.type == EventType::kMsgDone) {
      m.done = true;
      m.t_done = e.t;
      m.done_node = event_pid(e);
      m.bytes = e.arg;
    }
  }

  std::vector<Line> lines;
  lines.reserve(evs.size() + 2 * msgs.size() + 8 * pids.size());
  std::size_t seq = 0;
  auto emit = [&](sim::Ps ts, std::string json) {
    lines.push_back(Line{ts, seq++, std::move(json)});
  };

  // Metadata: one process per node (plus the fabric), one thread per layer.
  for (const auto& [pid, _] : pids) {
    std::ostringstream os;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\""
       << (pid == 1000 ? std::string("fabric")
                       : "node " + std::to_string(pid))
       << "\"}}";
    emit(0, os.str());
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      std::ostringstream ts;
      ts << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << l << ",\"args\":{\"name\":\""
         << to_string(static_cast<Layer>(l)) << "\"}}";
      emit(0, ts.str());
    }
  }

  // Pass 2: per-event records. DMA start/end pairs fold into "X" slices
  // keyed by (node, msg_id); everything else is an instant.
  std::map<std::pair<int, std::uint64_t>, Event> dma_open;
  for (const Event& e : evs) {
    if (e.type == EventType::kDmaStart) {
      dma_open[{e.node, e.msg_id}] = e;
      continue;
    }
    if (e.type == EventType::kDmaEnd) {
      auto it = dma_open.find({e.node, e.msg_id});
      if (it != dma_open.end()) {
        const Event& s = it->second;
        std::ostringstream os;
        os << "{\"name\":\"dma\",\"ph\":\"X\",";
        append_common(os, s);
        os << ",\"dur\":" << sim::to_us(e.t - s.t) << ",\"args\":{\"bytes\":"
           << e.arg << ",\"msg\":\"" << esc_id(e.msg_id) << "\"}}";
        emit(s.t, os.str());
        dma_open.erase(it);
        continue;
      }
      // Unmatched end (start fell off the ring): fall through as instant.
    }
    std::ostringstream os;
    os << "{\"name\":\"" << to_string(e.type) << "\",\"ph\":\"i\",\"s\":\"t\",";
    append_common(os, e);
    os << ",\"args\":{\"arg\":" << e.arg << ",\"msg\":\"" << esc_id(e.msg_id)
       << "\"}}";
    emit(e.t, os.str());
  }
  // DMA slices still open at dump time surface as instants so nothing is
  // silently lost.
  for (const auto& [key, s] : dma_open) {
    std::ostringstream os;
    os << "{\"name\":\"dma_start\",\"ph\":\"i\",\"s\":\"t\",";
    append_common(os, s);
    os << ",\"args\":{\"arg\":" << s.arg << ",\"msg\":\"" << esc_id(s.msg_id)
       << "\"}}";
    emit(s.t, os.str());
  }

  // Async span per finished message: b on the first event's process, e on
  // the completing one. Chrome pairs them by (cat, id).
  for (const auto& [id, m] : msgs) {
    if (!m.started || !m.done) continue;
    std::ostringstream b;
    b << "{\"name\":\"message\",\"cat\":\"msg\",\"ph\":\"b\",\"id\":\""
      << esc_id(id) << "\",\"ts\":" << sim::to_us(m.t_first)
      << ",\"pid\":" << m.first_node
      << ",\"tid\":" << static_cast<int>(m.first_layer) << "}";
    emit(m.t_first, b.str());
    std::ostringstream en;
    en << "{\"name\":\"message\",\"cat\":\"msg\",\"ph\":\"e\",\"id\":\""
       << esc_id(id) << "\",\"ts\":" << sim::to_us(m.t_done)
       << ",\"pid\":" << m.done_node
       << ",\"tid\":" << static_cast<int>(m.first_layer)
       << ",\"args\":{\"bytes\":" << m.bytes << "}}";
    emit(m.t_done, en.str());
  }

  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.seq < b.seq;
                   });

  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << lines[i].json;
    if (i + 1 < lines.size()) out << ",";
    out << "\n";
  }
  out << "],\"displayTimeUnit\":\"ns\"}\n";
  return out.str();
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_trace_json(tracer);
  return static_cast<bool>(f);
}

std::uint64_t trace_digest(const Tracer& tracer) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const Event& e = tracer.at(i);
    mix(e.t);
    mix(e.msg_id);
    mix(e.arg);
    mix(static_cast<std::uint64_t>(static_cast<std::uint16_t>(e.node)));
    mix(static_cast<std::uint64_t>(e.layer));
    mix(static_cast<std::uint64_t>(e.type));
  }
  return h;
}

std::vector<MessageBreakdown> per_message_breakdown(const Tracer& tracer) {
  struct Acc {
    sim::Ps enq = 0, inject = 0, deliver = 0, handler = 0;
    bool has_enq = false, has_inject = false, has_deliver = false,
         has_handler = false;
  };
  std::map<std::uint64_t, Acc> accs;
  std::vector<MessageBreakdown> rows;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const Event& e = tracer.at(i);
    if (e.msg_id == 0) continue;
    Acc& a = accs[e.msg_id];
    switch (e.type) {
      case EventType::kSendEnqueue:
        if (!a.has_enq) { a.enq = e.t; a.has_enq = true; }
        break;
      case EventType::kWireHop:
        if (!a.has_inject) { a.inject = e.t; a.has_inject = true; }
        break;
      case EventType::kDeliver:
        if (!a.has_deliver) { a.deliver = e.t; a.has_deliver = true; }
        break;
      case EventType::kHandlerRun:
        if (!a.has_handler) { a.handler = e.t; a.has_handler = true; }
        break;
      case EventType::kMsgDone: {
        if (!a.has_enq) break;  // started before the trace window
        MessageBreakdown r;
        r.msg_id = e.msg_id;
        r.bytes = e.arg;
        r.t_start = a.enq;
        r.total = e.t - a.enq;
        if (a.has_inject) r.host = a.inject - a.enq;
        if (a.has_inject && a.has_deliver) r.wire = a.deliver - a.inject;
        if (a.has_deliver && a.has_handler) r.queue = a.handler - a.deliver;
        if (a.has_handler) r.handler = e.t - a.handler;
        rows.push_back(r);
        accs.erase(e.msg_id);
        break;
      }
      default:
        break;
    }
  }
  return rows;
}

BreakdownSummary summarize_breakdown(const Tracer& tracer) {
  BreakdownSummary s;
  auto rows = per_message_breakdown(tracer);
  if (rows.empty()) return s;
  double host = 0, wire = 0, queue = 0, handler = 0, total = 0;
  Histogram totals(latency_bounds_ps());
  for (const MessageBreakdown& r : rows) {
    host += sim::to_us(r.host);
    wire += sim::to_us(r.wire);
    queue += sim::to_us(r.queue);
    handler += sim::to_us(r.handler);
    total += sim::to_us(r.total);
    totals.observe(static_cast<std::uint64_t>(r.total));
  }
  double n = static_cast<double>(rows.size());
  s.messages = rows.size();
  s.host_us = host / n;
  s.wire_us = wire / n;
  s.queue_us = queue / n;
  s.handler_us = handler / n;
  s.total_us = total / n;
  s.total_p50_us = totals.quantile(0.50) / 1e6;
  s.total_p99_us = totals.quantile(0.99) / 1e6;
  s.total_p999_us = totals.quantile(0.999) / 1e6;
  return s;
}

const char* env_trace_path() noexcept {
  const char* p = std::getenv("FMX_TRACE");
  return (p && *p) ? p : nullptr;
}

}  // namespace fmx::trace
