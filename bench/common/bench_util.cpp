#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>

#include "myrinet/parallel_cluster.hpp"
#include "sim/engine.hpp"

namespace fmx::bench {

using sim::Engine;
using sim::Task;

Measurement fm1_bandwidth(const net::ClusterParams& cp, std::size_t msg_size,
                          int n_msgs, fm1::Config cfg) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  fm1::Endpoint tx(cluster.node(0), cluster.fabric_of(0), cfg);
  fm1::Endpoint rx(cluster.node(1), cluster.fabric_of(1), cfg);
  int got = 0;
  rx.register_handler(0, [&](int, ByteSpan) { ++got; });

  sim::Ps t_end = 0;
  eng.spawn([](fm1::Endpoint& ep, std::size_t size, int n) -> Task<void> {
    Bytes msg(size);
    for (int i = 0; i < n; ++i) co_await ep.send(1, 0, ByteSpan{msg});
  }(tx, msg_size, n_msgs));
  eng.spawn([](Engine& e, fm1::Endpoint& ep, int& g, int n,
               sim::Ps& end) -> Task<void> {
    co_await ep.poll_until([&] { return g == n; });
    end = e.now();
  }(eng, rx, got, n_msgs, t_end));
  auto tx_before = tx.host().ledger();
  auto rx_before = rx.host().ledger();
  cluster.run();

  Measurement m;
  m.bandwidth_mbs = static_cast<double>(msg_size) * n_msgs /
                    sim::to_seconds(t_end) / 1e6;
  m.copies_send = tx.host().ledger().diff(tx_before).copies();
  m.copies_recv = rx.host().ledger().diff(rx_before).copies();
  m.allocs_send = tx.host().ledger().diff(tx_before).allocs();
  m.allocs_recv = rx.host().ledger().diff(rx_before).allocs();
  return m;
}

double fm1_latency_us(const net::ClusterParams& cp, std::size_t msg_size,
                      int rounds, fm1::Config cfg) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  fm1::Endpoint a(cluster.node(0), cluster.fabric_of(0), cfg);
  fm1::Endpoint b(cluster.node(1), cluster.fabric_of(1), cfg);
  int got_a = 0, got_b = 0;
  a.register_handler(0, [&](int, ByteSpan) { ++got_a; });
  b.register_handler(0, [&](int, ByteSpan) { ++got_b; });
  sim::Ps t_end = 0;
  eng.spawn([](Engine& e, fm1::Endpoint& ep, int& got, int n,
               std::size_t size, sim::Ps& end) -> Task<void> {
    Bytes msg(size);
    for (int i = 0; i < n; ++i) {
      co_await ep.send(1, 0, ByteSpan{msg});
      co_await ep.poll_until([&, i] { return got > i; });
    }
    end = e.now();
  }(eng, a, got_a, rounds, msg_size, t_end));
  eng.spawn([](fm1::Endpoint& ep, int& got, int n, std::size_t size)
                -> Task<void> {
    Bytes msg(size);
    for (int i = 0; i < n; ++i) {
      co_await ep.poll_until([&, i] { return got > i; });
      co_await ep.send(0, 0, ByteSpan{msg});
    }
  }(b, got_b, rounds, msg_size));
  cluster.run();
  return sim::to_us(t_end) / (2.0 * rounds);
}

Measurement fm2_bandwidth(const net::ClusterParams& cp, std::size_t msg_size,
                          int n_msgs, fm2::Config cfg) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  fm2::Endpoint tx(cluster.node(0), cluster.fabric_of(0), cfg);
  fm2::Endpoint rx(cluster.node(1), cluster.fabric_of(1), cfg);
  int got = 0;
  Bytes sink(std::max<std::size_t>(msg_size, 1));
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    if (s.msg_bytes() > 0) co_await s.receive(sink.data(), s.msg_bytes());
    ++got;
  });

  sim::Ps t_end = 0;
  eng.spawn([](fm2::Endpoint& ep, std::size_t size, int n) -> Task<void> {
    Bytes msg(size);
    for (int i = 0; i < n; ++i) co_await ep.send(1, 0, ByteSpan{msg});
  }(tx, msg_size, n_msgs));
  eng.spawn([](Engine& e, fm2::Endpoint& ep, int& g, int n,
               sim::Ps& end) -> Task<void> {
    co_await ep.poll_until([&] { return g == n; });
    end = e.now();
  }(eng, rx, got, n_msgs, t_end));
  auto tx_before = tx.host().ledger();
  auto rx_before = rx.host().ledger();
  cluster.run();

  Measurement m;
  m.bandwidth_mbs = static_cast<double>(msg_size) * n_msgs /
                    sim::to_seconds(t_end) / 1e6;
  m.copies_send = tx.host().ledger().diff(tx_before).copies();
  m.copies_recv = rx.host().ledger().diff(rx_before).copies();
  m.allocs_send = tx.host().ledger().diff(tx_before).allocs();
  m.allocs_recv = rx.host().ledger().diff(rx_before).allocs();
  return m;
}

double fm2_latency_us(const net::ClusterParams& cp, std::size_t msg_size,
                      int rounds, fm2::Config cfg) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  fm2::Endpoint a(cluster.node(0), cluster.fabric_of(0), cfg);
  fm2::Endpoint b(cluster.node(1), cluster.fabric_of(1), cfg);
  int got_a = 0, got_b = 0;
  Bytes sink(std::max<std::size_t>(msg_size, 1));
  auto make_handler = [&sink](int& counter) {
    return [&sink, &counter](fm2::RecvStream& s, int) -> fm2::HandlerTask {
      if (s.msg_bytes() > 0) co_await s.receive(sink.data(), s.msg_bytes());
      ++counter;
    };
  };
  a.register_handler(0, make_handler(got_a));
  b.register_handler(0, make_handler(got_b));
  sim::Ps t_end = 0;
  eng.spawn([](Engine& e, fm2::Endpoint& ep, int& got, int n,
               std::size_t size, sim::Ps& end) -> Task<void> {
    Bytes msg(size);
    for (int i = 0; i < n; ++i) {
      co_await ep.send(1, 0, ByteSpan{msg});
      co_await ep.poll_until([&, i] { return got > i; });
    }
    end = e.now();
  }(eng, a, got_a, rounds, msg_size, t_end));
  eng.spawn([](fm2::Endpoint& ep, int& got, int n, std::size_t size)
                -> Task<void> {
    Bytes msg(size);
    for (int i = 0; i < n; ++i) {
      co_await ep.poll_until([&, i] { return got > i; });
      co_await ep.send(0, 0, ByteSpan{msg});
    }
  }(b, got_b, rounds, msg_size));
  cluster.run();
  return sim::to_us(t_end) / (2.0 * rounds);
}

double half_power_point(const std::function<double(std::size_t)>& bw_of,
                        double peak_mbs, std::size_t lo, std::size_t hi) {
  double target = peak_mbs / 2.0;
  std::size_t a = lo, b = hi;
  double bw_a = bw_of(a);
  if (bw_a >= target) return static_cast<double>(a);
  while (b - a > 1) {
    std::size_t mid = (a + b) / 2;
    if (bw_of(mid) >= target) {
      b = mid;
    } else {
      a = mid;
    }
  }
  return static_cast<double>(b);
}

std::vector<std::size_t> paper_sizes(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t s = lo; s <= hi; s *= 2) v.push_back(s);
  return v;
}

trace::BreakdownSummary fm1_breakdown(const net::ClusterParams& cp,
                                      std::size_t msg_size, int n_msgs,
                                      fm1::Config cfg) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  cluster.fabric_of(0).tracer().enable();
  fm1::Endpoint tx(cluster.node(0), cluster.fabric_of(0), cfg);
  fm1::Endpoint rx(cluster.node(1), cluster.fabric_of(1), cfg);
  int got = 0;
  rx.register_handler(0, [&](int, ByteSpan) { ++got; });
  eng.spawn([](fm1::Endpoint& ep, std::size_t size, int n) -> Task<void> {
    Bytes msg(size);
    for (int i = 0; i < n; ++i) co_await ep.send(1, 0, ByteSpan{msg});
  }(tx, msg_size, n_msgs));
  eng.spawn([](fm1::Endpoint& ep, int& g, int n) -> Task<void> {
    co_await ep.poll_until([&] { return g == n; });
  }(rx, got, n_msgs));
  cluster.run();
  return trace::summarize_breakdown(cluster.fabric_of(0).tracer());
}

trace::BreakdownSummary fm2_breakdown(const net::ClusterParams& cp,
                                      std::size_t msg_size, int n_msgs,
                                      fm2::Config cfg) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  cluster.fabric_of(0).tracer().enable();
  fm2::Endpoint tx(cluster.node(0), cluster.fabric_of(0), cfg);
  fm2::Endpoint rx(cluster.node(1), cluster.fabric_of(1), cfg);
  int got = 0;
  Bytes sink(std::max<std::size_t>(msg_size, 1));
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    if (s.msg_bytes() > 0) co_await s.receive(sink.data(), s.msg_bytes());
    ++got;
  });
  eng.spawn([](fm2::Endpoint& ep, std::size_t size, int n) -> Task<void> {
    Bytes msg(size);
    for (int i = 0; i < n; ++i) co_await ep.send(1, 0, ByteSpan{msg});
  }(tx, msg_size, n_msgs));
  eng.spawn([](fm2::Endpoint& ep, int& g, int n) -> Task<void> {
    co_await ep.poll_until([&] { return g == n; });
  }(rx, got, n_msgs));
  cluster.run();
  return trace::summarize_breakdown(cluster.fabric_of(0).tracer());
}

void print_breakdown_rows(
    const std::string& title,
    const std::vector<std::pair<std::string, trace::BreakdownSummary>>&
        rows) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-18s %6s %9s %9s %9s %10s %9s %9s %9s %9s\n", "stack",
              "msgs", "host us", "wire us", "queue us", "handler us",
              "total us", "p50 us", "p99 us", "p999 us");
  for (const auto& [label, s] : rows) {
    std::printf(
        "  %-18s %6llu %9.3f %9.3f %9.3f %10.3f %9.3f %9.3f %9.3f %9.3f\n",
        label.c_str(), static_cast<unsigned long long>(s.messages), s.host_us,
        s.wire_us, s.queue_us, s.handler_us, s.total_us, s.total_p50_us,
        s.total_p99_us, s.total_p999_us);
  }
}

}  // namespace fmx::bench

// Defined out of line to keep mpi headers out of bench_util.hpp users that
// only need the FM layers.
#include "mpi/mpi_fm1.hpp"
#include "mpi/mpi_fm2.hpp"

namespace fmx::bench {

namespace {

// MpiT layers over an EndpointT (fm1::Endpoint or fm2::Endpoint).
template <typename EndpointT, typename MpiT>
Measurement mpi_bandwidth_impl(const net::ClusterParams& cp,
                               std::size_t msg_size, int n_msgs) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  EndpointT ep0(cluster.node(0), cluster.fabric_of(0));
  EndpointT ep1(cluster.node(1), cluster.fabric_of(1));
  MpiT tx(ep0), rx(ep1);
  sim::Ps t_end = 0;
  eng.spawn([](mpi::Comm& c, std::size_t sz, int n) -> Task<void> {
    Bytes m(sz);
    for (int i = 0; i < n; ++i) co_await c.send(ByteSpan{m}, 1, 0);
  }(tx, msg_size, n_msgs));
  eng.spawn([](Engine& e, mpi::Comm& c, std::size_t sz, int n,
               sim::Ps& end) -> Task<void> {
    std::vector<Bytes> bufs(n, Bytes(sz));
    std::vector<mpi::Request> reqs;
    reqs.reserve(n);
    for (int i = 0; i < n; ++i) {
      reqs.push_back(co_await c.irecv(MutByteSpan{bufs[i]}, 0, 0));
    }
    for (auto& r : reqs) co_await c.wait(r);
    end = e.now();
  }(eng, rx, msg_size, n_msgs, t_end));
  cluster.run();
  Measurement m;
  m.bandwidth_mbs = static_cast<double>(msg_size) * n_msgs /
                    sim::to_seconds(t_end) / 1e6;
  return m;
}

template <typename EndpointT, typename MpiT>
double mpi_latency_impl(const net::ClusterParams& cp, std::size_t msg_size,
                        int rounds) {
  net::ParallelCluster cluster(cp, 1);
  Engine& eng = cluster.shard_engine(0);
  EndpointT ep0(cluster.node(0), cluster.fabric_of(0));
  EndpointT ep1(cluster.node(1), cluster.fabric_of(1));
  MpiT a(ep0), b(ep1);
  sim::Ps t_end = 0;
  eng.spawn([](Engine& e, mpi::Comm& c, std::size_t sz, int n,
               sim::Ps& end) -> Task<void> {
    Bytes m(sz), r(sz);
    for (int i = 0; i < n; ++i) {
      co_await c.send(ByteSpan{m}, 1, 0);
      co_await c.recv(MutByteSpan{r}, 1, 0);
    }
    end = e.now();
  }(eng, a, msg_size, rounds, t_end));
  eng.spawn([](mpi::Comm& c, std::size_t sz, int n) -> Task<void> {
    Bytes m(sz), r(sz);
    for (int i = 0; i < n; ++i) {
      co_await c.recv(MutByteSpan{r}, 0, 0);
      co_await c.send(ByteSpan{m}, 0, 0);
    }
  }(b, msg_size, rounds));
  cluster.run();
  return sim::to_us(t_end) / (2.0 * rounds);
}

}  // namespace

Measurement mpi_bandwidth(MpiGen gen, const net::ClusterParams& cp,
                          std::size_t msg_size, int n_msgs) {
  return gen == MpiGen::kFm1
             ? mpi_bandwidth_impl<fm1::Endpoint, mpi::MpiFm1>(cp, msg_size,
                                                              n_msgs)
             : mpi_bandwidth_impl<fm2::Endpoint, mpi::MpiFm2>(cp, msg_size,
                                                              n_msgs);
}

double mpi_latency_us(MpiGen gen, const net::ClusterParams& cp,
                      std::size_t msg_size, int rounds) {
  return gen == MpiGen::kFm1
             ? mpi_latency_impl<fm1::Endpoint, mpi::MpiFm1>(cp, msg_size,
                                                            rounds)
             : mpi_latency_impl<fm2::Endpoint, mpi::MpiFm2>(cp, msg_size,
                                                            rounds);
}

namespace {

// First "model name" line from /proc/cpuinfo ("unknown" elsewhere): meta
// records it so a reader can judge whether two runs are comparable.
std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ' || model.front() == '\t'))
          model.erase(model.begin());
        while (!model.empty() && (model.back() == '\n' || model.back() == ' '))
          model.pop_back();
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + '"';
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

Json::Entry& Json::entry(const char* key) {
  for (Entry& e : entries_) {
    if (e.key == key) return e;
  }
  entries_.push_back(Entry{key, {}, nullptr, {}, false});
  return entries_.back();
}

Json& Json::leaf(const char* key, std::string text) {
  entry(key).text = std::move(text);
  return *this;
}

Json& Json::num(const char* key, const char* fmt, ...) {
  char buf[64];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return leaf(key, buf);
}

Json& Json::count(const char* key, std::uint64_t v) {
  return leaf(key, std::to_string(v));
}

Json& Json::str(const char* key, const std::string& v) {
  return leaf(key, quoted(v));
}

Json& Json::hex(const char* key, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return leaf(key, buf);
}

Json& Json::flag(const char* key, bool v) {
  return leaf(key, v ? "true" : "false");
}

Json& Json::obj(const char* key) {
  Entry& e = entry(key);
  if (!e.object) e.object = std::make_unique<Json>();
  return *e.object;
}

Json& Json::row(const char* key) {
  Entry& e = entry(key);
  e.is_array = true;
  e.rows.push_back(std::make_unique<Json>());
  return *e.rows.back();
}

void Json::render(std::string& out, int indent) const {
  const std::string pad(indent + 2, ' ');
  out += "{\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += pad + quoted(e.key) + ": ";
    if (e.object) {
      e.object->render(out, indent + 2);
    } else if (e.is_array) {
      out += "[\n";
      for (std::size_t r = 0; r < e.rows.size(); ++r) {
        out += pad + "  ";
        e.rows[r]->render_row(out);
        out += r + 1 < e.rows.size() ? ",\n" : "\n";
      }
      out += pad + "]";
    } else {
      out += e.text;
    }
    out += i + 1 < entries_.size() ? ",\n" : "\n";
  }
  out += std::string(indent, ' ') + "}";
}

void Json::render_row(std::string& out) const {
  out += "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(entries_[i].key) + ": " + entries_[i].text;
  }
  out += "}";
}

bool Artifact::write(const std::string& path) const {
  Json meta;
  meta.count("cpus", std::thread::hardware_concurrency())
      .str("cpu_model", cpu_model());
  const std::pair<const char*, const Json*> sections[] = {
      {"meta", &meta}, {"config", &config}, {"sim", &sim}, {"wall", &wall}};
  std::string out = "{";
  for (const auto& [name, json] : sections) {
    if (json->empty()) continue;
    out += out.size() > 1 ? ",\n  " : "\n  ";
    out += quoted(name) + ": ";
    json->render(out, 2);
  }
  out += "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool ok = f != nullptr && std::fputs(out.c_str(), f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !ok) {
    std::perror(path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace fmx::bench
