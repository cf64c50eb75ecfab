// fmbench: the repository's wall-clock benchmark (see README.md beside this
// file). Three workloads that between them load every layer of the stack,
// each a batch job the simulator consumes as fast as it can:
//
//   mpi_stream       MPI-FM2 over a shared FM 2.x endpoint on 2 hosts: the
//                    paper's layered stack, per-message and per-byte work.
//   fattree_serial   1024-host radix-16 fat-tree, open-loop single-packet
//                    flows, one shard on one thread: per-host state and the
//                    event core.
//   fattree_sharded  the same cluster and schedule on 8 shards and 2
//                    threads: the parallel horizon machinery.
//
// Every workload is driven only through net::ParallelCluster, the
// (Node&, Fabric&) endpoint constructor, MpiFm2(fm2::Endpoint&),
// workload::TrafficEngine and RunResult, and every output is checked.
// The benchmark depends on src/ alone: its small helpers (median, CPU
// model, the allocation counter) are its own, so reworking the bench/
// harness never changes what this program measures.
//
// --trace 0 reports the end-to-end metrics (msgs_per_s, setup_s,
// peak_rss_MB) with all instrumentation off. --trace 1 is the separate
// traced run: it alternates untraced and traced passes, records wall-clock
// spans around every call into a layer, and reports the per-layer split.
//
// Usage: fmbench --workload NAME --seed N --seconds S --trace 0|1
//                [--short] [--tamper] [--spans PATH]
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/copy_stats.hpp"
#include "fm2/fm2.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "myrinet/params.hpp"
#include "trace/export.hpp"
#include "workload/traffic_engine.hpp"

std::uint64_t fmbench_alloc_count();  // alloc_count.cpp

using namespace fmx;
using Clock = std::chrono::steady_clock;

namespace {

// Wall-clock numbers from a sanitizer or unoptimised build say nothing
// about the simulator, and the gitignored build-asan/ and build-tsan/
// trees are easy to pick up by mistake.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
constexpr bool kMeasurableBuild = false;
#else
constexpr bool kMeasurableBuild = true;
#endif

const Clock::time_point g_t0 = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Resident-set figures from /proc/self/status ("VmRSS", "VmHWM"), in MB
/// of 10^6 bytes.
double proc_status_mb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double mb = 0;
  const std::size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      mb = std::strtod(line + klen + 1, nullptr) * 1024.0 / 1e6;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* p = std::strchr(line, ':');
    if (p == nullptr) break;
    for (++p; *p == ' ' || *p == '\t'; ++p) {
    }
    model = p;
    while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
      model.pop_back();
    }
    break;
  }
  std::fclose(f);
  for (char& c : model) {
    if (c == '"' || c == '\\') c = ' ';
  }
  return model;
}

// ---------------------------------------------------------------------------
// Wall-clock spans (name, start, end, parent) around every call the
// benchmark makes into a layer. Recorded only in the traced run, kept in
// memory, written out as a Chrome trace when the run ends.

class Spans {
 public:
  void enable() {
    on_ = true;
    spans_.reserve(std::size_t{1} << 16);
    open_.reserve(64);
  }
  int open(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, now_s(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].t1 = now_s();
    open_.pop_back();
  }

  bool write_chrome(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   s.name, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  /// Per span name: calls, total wall time, and self time (duration minus
  /// the part its child spans cover).
  void print_self_times() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.t1 - s.t0;
    }
    struct Row {
      int calls = 0;
      double total = 0, self = 0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      ++r.calls;
      r.total += spans_[i].t1 - spans_[i].t0;
      r.self += spans_[i].t1 - spans_[i].t0 - child[i];
    }
    std::printf("spans (wall clock, benchmark side):\n");
    std::printf("  %-34s %7s %12s %12s\n", "span", "calls", "total_s",
                "self_s");
    for (const auto& [name, r] : rows) {
      std::printf("  %-34s %7d %12.6f %12.6f\n", name.c_str(), r.calls,
                  r.total, r.self);
    }
  }

 private:
  struct Span {
    const char* name;
    double t0, t1;
    int parent;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Spans g_spans;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(g_spans.open(name)) {}
  ~SpanScope() { g_spans.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Layer counters, read from outside through each layer's public stats.

enum Ctr : std::size_t {
  kAllocs,
  kEndpointBytes,
  kHopCopies,
  kPoolAcquires,
  kPoolHits,
  kFabricPackets,
  kFabricDropped,
  kNicRetx,
  kNicCrcDropped,
  kFm2Packets,
  kFm2Resumes,
  kFm2CreditPackets,
  kFm2CreditStalls,
  kMpiRecvs,
  kMpiPostedHits,
  kNumCtrs
};
using Counters = std::array<std::uint64_t, kNumCtrs>;

Counters minus(const Counters& a, const Counters& b) {
  Counters d{};
  for (std::size_t i = 0; i < kNumCtrs; ++i) d[i] = a[i] - b[i];
  return d;
}

void add_cluster_counters(net::ParallelCluster& cl, Counters& c) {
  c[kAllocs] = fmbench_alloc_count();
  const CopyStats::Snapshot cs = CopyStats::instance().snapshot();
  c[kEndpointBytes] = cs.endpoint_bytes;
  c[kHopCopies] = cs.hop_copies;
  for (int s = 0; s < cl.n_shards(); ++s) {
    const BufferPool::Stats& ps = cl.shard_fabric(s).pool().stats();
    c[kPoolAcquires] += ps.acquires;
    c[kPoolHits] += ps.pool_hits;
  }
  const net::Fabric::Stats fs = cl.fabric_stats();
  c[kFabricPackets] = fs.packets;
  c[kFabricDropped] = fs.dropped;
  for (int i = 0; i < cl.size(); ++i) {
    const net::Nic::Stats& ns = cl.node(i).nic().stats();
    c[kNicRetx] += ns.retransmissions;
    c[kNicCrcDropped] += ns.crc_dropped;
  }
}

void add_endpoint_counters(const fm2::Endpoint& ep, Counters& c) {
  const fm2::Endpoint::Stats& s = ep.stats();
  c[kFm2Packets] += s.packets_sent;
  c[kFm2Resumes] += s.handler_resumes;
  c[kFm2CreditPackets] += s.credit_packets_sent;
  c[kFm2CreditStalls] += s.credit_stall_events;
}

// ---------------------------------------------------------------------------

/// Set-up times each cover only the calls that build the simulator's input
/// or the simulator itself; the checker's expectations and the benchmark's
/// buffers are made once, untimed, in the workload's constructor.
struct SetupTimes {
  double schedule_s = 0;   // seeded size sequence, or make_schedule
  double cluster_s = 0;    // ParallelCluster constructor
  double endpoints_s = 0;  // endpoints + communicators, or TrafficEngine
  double cluster_mb = 0;   // RSS growth across the cluster constructor
  double total_s() const { return schedule_s + cluster_s + endpoints_s; }
};

/// One pass over the workload's whole input, checked.
struct Pass {
  std::uint64_t msgs = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;  // spawn + run + verification
  double run_s = 0;   // inside ParallelCluster::run only
  net::ParallelCluster::RunResult run;
  Counters ctr{};  // layer counter deltas across the pass

  // Simulated-clock outputs (model results, identical for a given seed).
  double goodput_mbps = 0;
  double lat_p50_us = 0, lat_p999_us = 0;
  std::uint64_t lat_samples = 0;
  double src_queue_p99_us = 0, transit_p99_us = 0, deliver_p99_us = 0;
  trace::BreakdownSummary breakdown;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything that exists before the first message.
  virtual SetupTimes build() = 0;
  virtual void teardown() = 0;
  virtual Pass pass(bool traced) = 0;
  /// Check the next pass against a tampered expectation (self-test).
  virtual void arm_tamper(bool on) = 0;
  virtual int threads() const = 0;
  virtual int shards() const = 0;
  virtual int hosts() const = 0;
  virtual net::ParallelCluster& cluster() = 0;
  virtual void read_counters(Counters& c) = 0;
  /// Raw FM 2.x replay of the same input (mpi_stream only).
  virtual bool has_raw() const { return false; }
  virtual Pass raw_pass() { return {}; }

 protected:
  Counters sample() {
    Counters c{};
    add_cluster_counters(cluster(), c);
    read_counters(c);
    return c;
  }
  void set_tracing(bool on) {
    if (on) {
      cluster().enable_tracing(kTraceCapacity);
    } else {
      for (int s = 0; s < cluster().n_shards(); ++s) {
        cluster().shard_fabric(s).tracer().disable();
      }
    }
  }
  static constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;
};

// ---------------------------------------------------------------------------
// mpi_stream: rank 0 streams a seeded log-uniform 16 B - 16 KB sequence into
// a window of 16 pre-posted receives at rank 1 (closed loop: the sender is
// paced by FM credits and the window).

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

constexpr std::size_t kPoolBytes = std::size_t{256} << 10;
constexpr std::size_t kMaxMsg = 16384;

void fill_seeded(std::uint64_t seed, Bytes& out) {
  out.resize(kPoolBytes);
  SplitMix r{seed ^ 0x7061796C6F616473ull};
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t v = r.next();
    std::memcpy(out.data() + i, &v, 8);
  }
}

class MpiStream final : public Workload {
 public:
  MpiStream(bool short_mode, std::uint64_t seed)
      : n_(short_mode ? 2048 : 32768), seed_(seed) {
    // The sender's bytes and the checker's copy are generated apart, so a
    // stack that scribbles on its send buffer is caught too.
    fill_seeded(seed, send_pool_);
    fill_seeded(seed, expect_);
    for (Bytes& b : win_) b.assign(kMaxMsg, std::byte{0});
    sent_at_.assign(n_, 0);
    lat_ps_.assign(n_, 0);
  }

  SetupTimes build() override {
    SetupTimes t;
    SpanScope setup("setup");
    const double t0 = now_s();
    {
      SpanScope s("make_sequence");
      SplitMix r{seed_};
      size_.resize(n_);
      offset_.resize(n_);
      bytes_ = 0;
      for (int i = 0; i < n_; ++i) {
        // log-uniform over [16, 16384): each octave equally likely.
        size_[i] = static_cast<std::uint32_t>(16.0 * std::exp2(10.0 * r.unit()));
        offset_[i] =
            static_cast<std::uint32_t>(r.next() % (kPoolBytes - size_[i] + 1));
        bytes_ += size_[i];
      }
    }
    t.schedule_s = now_s() - t0;
    const double rss0 = proc_status_mb("VmRSS");
    const double t1 = now_s();
    {
      SpanScope s("ParallelCluster()");
      cl_ = std::make_unique<net::ParallelCluster>(net::ppro_fm2_cluster(2),
                                                   1);
    }
    t.cluster_s = now_s() - t1;
    t.cluster_mb = proc_status_mb("VmRSS") - rss0;
    const double t2 = now_s();
    for (int r = 0; r < 2; ++r) {
      SpanScope s("fm2::Endpoint()");
      ep_[r] = std::make_unique<fm2::Endpoint>(cl_->node(r), cl_->fabric_of(r));
    }
    for (int r = 0; r < 2; ++r) {
      SpanScope s("mpi::MpiFm2()");
      comm_[r] = std::make_unique<mpi::MpiFm2>(*ep_[r]);
    }
    t.endpoints_s = now_s() - t2;
    // The raw FM 2.x replay's handler belongs to the benchmark, not set-up.
    ep_[1]->register_handler(
        kRawHandler, [this](fm2::RecvStream& s, int src) -> fm2::HandlerTask {
          const int i = raw_started_++;
          Bytes& buf = win_[i % kWindow];
          const std::size_t n = s.msg_bytes();
          if (n > buf.size()) {
            ++pass_failed_;
            co_await s.skip(n);
          } else {
            co_await s.receive(buf.data(), n);
            check(i, buf.data(), mpi::Status{src, i, n});
          }
          ++raw_done_;
        });
    return t;
  }

  void teardown() override {
    for (auto& c : comm_) c.reset();
    for (auto& e : ep_) e.reset();
    cl_.reset();
  }

  Pass pass(bool traced) override { return stream(traced, false); }
  Pass raw_pass() override { return stream(false, true); }
  bool has_raw() const override { return true; }

  void arm_tamper(bool on) override {
    tamper_msg_ = on ? n_ / 2 : -1;
    if (on) {
      const auto* want = expect_.data() + offset_[tamper_msg_];
      tampered_.assign(want, want + size_[tamper_msg_]);
      tampered_[size_[tamper_msg_] / 2] ^= std::byte{0x5A};
    }
  }
  int threads() const override { return 1; }
  int shards() const override { return 1; }
  int hosts() const override { return 2; }
  net::ParallelCluster& cluster() override { return *cl_; }
  void read_counters(Counters& c) override {
    for (auto& e : ep_) add_endpoint_counters(*e, c);
    c[kMpiRecvs] = comm_[1]->stats().recvs;
    c[kMpiPostedHits] = comm_[1]->stats().posted_hits;
  }

 private:
  static constexpr int kWindow = 16;
  static constexpr fm2::HandlerId kRawHandler = 7;

  /// Compare one received message with the seeded sender bytes and its
  /// Status with what was sent.
  void check(int i, const std::byte* got, const mpi::Status& st) {
    const std::byte* want = i == tamper_msg_ ? tampered_.data()
                                             : expect_.data() + offset_[i];
    const bool ok = st.source == 0 && st.tag == i && st.count == size_[i] &&
                    std::memcmp(got, want, size_[i]) == 0;
    if (!ok) ++pass_failed_;
  }

  sim::Task<void> mpi_send_all() {
    sim::Engine& eng = cl_->engine_of(0);
    mpi::MpiFm2& c = *comm_[0];
    t_begin_ = eng.now();
    for (int i = 0; i < n_; ++i) {
      sent_at_[i] = eng.now();
      co_await c.send(ByteSpan{send_pool_.data() + offset_[i], size_[i]}, 1,
                      i);
    }
  }

  sim::Task<void> mpi_recv_all() {
    sim::Engine& eng = cl_->engine_of(1);
    mpi::MpiFm2& c = *comm_[1];
    std::array<mpi::Request, kWindow> req;
    for (int i = 0; i < std::min(kWindow, n_); ++i) {
      req[i] = co_await c.irecv(MutByteSpan{win_[i]}, 0, i);
    }
    for (int i = 0; i < n_; ++i) {
      const int w = i % kWindow;
      mpi::Status st;
      co_await c.wait(req[w], &st);
      lat_ps_[i] = eng.now() - sent_at_[i];
      check(i, win_[w].data(), st);
      ++done_;
      if (i + kWindow < n_) {
        req[w] = co_await c.irecv(MutByteSpan{win_[w]}, 0, i + kWindow);
      }
    }
    t_end_ = eng.now();
  }

  sim::Task<void> raw_send_all() {
    sim::Engine& eng = cl_->engine_of(0);
    fm2::Endpoint& ep = *ep_[0];
    t_begin_ = eng.now();
    for (int i = 0; i < n_; ++i) {
      co_await ep.send(1, kRawHandler,
                       ByteSpan{send_pool_.data() + offset_[i], size_[i]});
    }
  }

  sim::Task<void> raw_recv_all() {
    co_await ep_[1]->poll_until([this] { return raw_done_ == n_; });
    done_ = raw_done_;
    t_end_ = cl_->engine_of(1).now();
  }

  Pass stream(bool traced, bool raw) {
    Pass p;
    pass_failed_ = 0;
    done_ = raw_done_ = raw_started_ = 0;
    if (traced) set_tracing(true);
    const Counters c0 = sample();
    SpanScope pass_span(raw ? "pass(raw fm2)" : "pass(mpi)");
    const double t0 = now_s();
    {
      SpanScope s("spawn_on(sender)");
      cl_->spawn_on(0, raw ? raw_send_all() : mpi_send_all());
    }
    {
      SpanScope s("spawn_on(receiver)");
      cl_->spawn_on(1, raw ? raw_recv_all() : mpi_recv_all());
    }
    const double t1 = now_s();
    {
      SpanScope s("ParallelCluster::run()");
      p.run = cl_->run(1);
    }
    const double t2 = now_s();
    {
      SpanScope s("verify");
      // Payloads and Status were compared as each message completed; what
      // is left is that every message arrived and nothing is stuck.
      if (done_ < n_) pass_failed_ += n_ - done_;
      pass_failed_ += p.run.pending_roots;
    }
    p.wall_s = now_s() - t0;
    p.run_s = t2 - t1;
    p.ctr = minus(sample(), c0);
    p.msgs = n_;
    p.failed = std::min<std::uint64_t>(pass_failed_, n_);

    const double sim_s = sim::to_seconds(t_end_ - t_begin_);
    p.goodput_mbps = ratio(static_cast<double>(bytes_) / 1e6, sim_s);
    if (!raw) {
      std::vector<sim::Ps> lat(lat_ps_);
      std::sort(lat.begin(), lat.end());
      const auto q = [&](double f) {
        const std::size_t k = std::min(
            lat.size() - 1, static_cast<std::size_t>(f * lat.size()));
        return sim::to_us(lat[k]);
      };
      p.lat_p50_us = q(0.50);
      p.lat_p999_us = q(0.999);
      p.lat_samples = lat.size();
    }
    if (traced) {
      p.breakdown = trace::summarize_breakdown(cl_->shard_fabric(0).tracer());
      set_tracing(false);
    }
    return p;
  }

  const int n_;
  const std::uint64_t seed_;
  std::vector<std::uint32_t> size_, offset_;
  std::uint64_t bytes_ = 0;
  Bytes send_pool_, expect_, tampered_;
  int tamper_msg_ = -1;

  std::unique_ptr<net::ParallelCluster> cl_;
  std::array<std::unique_ptr<fm2::Endpoint>, 2> ep_;
  std::array<std::unique_ptr<mpi::MpiFm2>, 2> comm_;

  std::array<Bytes, kWindow> win_;
  std::vector<sim::Ps> sent_at_, lat_ps_;
  sim::Ps t_begin_ = 0, t_end_ = 0;
  std::uint64_t pass_failed_ = 0;
  int done_ = 0, raw_done_ = 0, raw_started_ = 0;
};

// ---------------------------------------------------------------------------
// fattree_serial / fattree_sharded: open-loop Poisson flows (1e5 flows/s per
// host, bounded-Pareto 32 B - 2 KB sizes, uniform destinations) over a
// radix-16 fat-tree, replayed by workload::TrafficEngine.

class FatTree final : public Workload {
 public:
  FatTree(bool short_mode, int shards, int threads, std::uint64_t seed)
      : hosts_(short_mode ? 128 : 1024), shards_(shards), threads_(threads) {
    cfg_.pattern = workload::TrafficPattern::kUniform;
    cfg_.sizes = workload::SizeDistribution::bounded_pareto(1.2, 32, 2048);
    cfg_.flow_rate_per_host = 1e5;
    cfg_.flows_per_host = short_mode ? 8 : 32;
    cfg_.seed = seed;
    // The checker's expectation, counted from the flows of its own copy
    // of the schedule.
    exp_msgs_.assign(hosts_, 0);
    exp_bytes_.assign(hosts_, 0);
    got_msgs_.assign(hosts_, 0);
    got_bytes_.assign(hosts_, 0);
    const workload::Schedule expected = workload::make_schedule(cfg_, hosts_);
    for (const auto& flows : expected.per_host) {
      for (const workload::Flow& f : flows) {
        ++exp_msgs_[f.dst];
        exp_bytes_[f.dst] += f.size;
        ++flows_;
        flow_bytes_ += f.size;
      }
    }
  }

  SetupTimes build() override {
    SetupTimes t;
    SpanScope setup("setup");
    const double t0 = now_s();
    {
      SpanScope s("make_schedule");
      sched_ = workload::make_schedule(cfg_, hosts_);
    }
    t.schedule_s = now_s() - t0;
    const double rss0 = proc_status_mb("VmRSS");
    const double t1 = now_s();
    {
      SpanScope s("ParallelCluster()");
      cl_ = std::make_unique<net::ParallelCluster>(
          net::fat_tree_cluster(hosts_, 0, 1), shards_);
    }
    t.cluster_s = now_s() - t1;
    t.cluster_mb = proc_status_mb("VmRSS") - rss0;
    const double t2 = now_s();
    {
      SpanScope s("TrafficEngine()");
      te_ = std::make_unique<workload::TrafficEngine>(*cl_);
    }
    t.endpoints_s = now_s() - t2;
    return t;
  }

  void teardown() override {
    te_.reset();
    cl_.reset();
  }

  Pass pass(bool traced) override {
    Pass p;
    if (traced) set_tracing(true);
    const Counters c0 = sample();
    for (int d = 0; d < hosts_; ++d) {
      got_msgs_[d] = te_->endpoint(d).stats().msgs_received;
      got_bytes_[d] = te_->endpoint(d).stats().bytes_received;
    }
    SpanScope pass_span("pass(traffic wave)");
    const double t0 = now_s();
    {
      SpanScope s("TrafficEngine::spawn_wave()");
      te_->spawn_wave(sched_);
    }
    const double t1 = now_s();
    {
      SpanScope s("ParallelCluster::run()");
      p.run = cl_->run(threads_);
    }
    const double t2 = now_s();
    workload::WaveResult wave;
    {
      SpanScope s("TrafficEngine::collect_wave()");
      wave = te_->collect_wave(sched_, p.run);
    }
    {
      SpanScope s("verify");
      p.failed = verify(wave, p.run);
    }
    p.wall_s = now_s() - t0;
    p.run_s = t2 - t1;
    p.ctr = minus(sample(), c0);
    p.msgs = flows_;

    p.goodput_mbps = ratio(static_cast<double>(flow_bytes_) / 1e6,
                           sim::to_seconds(wave.makespan));
    for (const workload::LayerQuantiles& q : wave.layers) {
      const std::string_view l = q.layer;
      if (l == "e2e") {
        p.lat_p50_us = q.p50 / 1e6;
        p.lat_p999_us = q.p999 / 1e6;
        p.lat_samples = q.count;
      } else if (l == "src_queue") {
        p.src_queue_p99_us = q.p99 / 1e6;
      } else if (l == "transit") {
        p.transit_p99_us = q.p99 / 1e6;
      } else if (l == "deliver") {
        p.deliver_p99_us = q.p99 / 1e6;
      }
    }
    if (traced) set_tracing(false);
    return p;
  }

  void arm_tamper(bool on) override {
    tamper_dst_ = on ? static_cast<int>(sched_.per_host[0].front().dst) : -1;
  }
  int threads() const override { return threads_; }
  int shards() const override { return shards_; }
  int hosts() const override { return hosts_; }
  net::ParallelCluster& cluster() override { return *cl_; }
  void read_counters(Counters& c) override {
    for (int i = 0; i < hosts_; ++i) add_endpoint_counters(te_->endpoint(i), c);
  }

 private:
  /// Failed flows in one wave: per destination, messages and bytes
  /// received must match the schedule; every flow must complete with no
  /// root stuck; and the completion digest must reproduce the run's first.
  std::uint64_t verify(const workload::WaveResult& wave,
                       const net::ParallelCluster::RunResult& run) {
    std::uint64_t bad = 0;
    for (int d = 0; d < hosts_; ++d) {
      const fm2::Endpoint::Stats& s = te_->endpoint(d).stats();
      const std::int64_t dm =
          static_cast<std::int64_t>(s.msgs_received - got_msgs_[d]) -
          exp_msgs_[d];
      const std::uint64_t want_bytes =
          exp_bytes_[d] + (d == tamper_dst_ ? 1 : 0);
      const bool bytes_ok = s.bytes_received - got_bytes_[d] == want_bytes;
      bad += dm != 0 ? static_cast<std::uint64_t>(std::llabs(dm))
                     : (bytes_ok ? 0 : 1);
    }
    bad = std::max<std::uint64_t>(bad, flows_ - std::min(flows_, wave.completed));
    bad += static_cast<std::uint64_t>(run.pending_roots);
    if (!have_ref_) {
      ref_digest_ = wave.digest;
      have_ref_ = true;
    } else if (wave.digest != ref_digest_) {
      ++bad;
    }
    return std::min(bad, flows_);
  }

  const int hosts_, shards_, threads_;
  workload::TrafficConfig cfg_;
  workload::Schedule sched_;
  std::vector<std::uint32_t> exp_msgs_;
  std::vector<std::uint64_t> exp_bytes_, got_msgs_, got_bytes_;
  std::uint64_t flows_ = 0, flow_bytes_ = 0;
  std::uint64_t ref_digest_ = 0;
  bool have_ref_ = false;
  int tamper_dst_ = -1;

  std::unique_ptr<net::ParallelCluster> cl_;
  std::unique_ptr<workload::TrafficEngine> te_;
};

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 0;
  int trace = 0;
  bool short_mode = false;
  bool tamper = false;
  const char* spans = nullptr;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (k == "--short") {
      a.short_mode = true;
    } else if (k == "--tamper") {
      a.tamper = true;
    } else if (v == nullptr) {
      return false;
    } else if (k == "--workload") {
      a.workload = v, ++i;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr), ++i;
    } else if (k == "--trace") {
      a.trace = std::atoi(v), ++i;
    } else if (k == "--spans") {
      a.spans = v, ++i;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seed.has_value() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), v, ms[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  std::unique_ptr<Workload> w;
  if (a.workload == "mpi_stream") {
    w = std::make_unique<MpiStream>(a.short_mode, *a.seed);
  } else if (a.workload == "fattree_serial") {
    w = std::make_unique<FatTree>(a.short_mode, 1, 1, *a.seed);
  } else if (a.workload == "fattree_sharded") {
    w = std::make_unique<FatTree>(a.short_mode, 8, 2, *a.seed);
  } else {
    std::fprintf(stderr, "fmbench: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  const bool traced_run = a.trace == 1;
  if (traced_run) g_spans.enable();

  // Set-up is short next to the machine's noise (under 1 ms for 2 hosts,
  // 0.2-0.3 s for 1024), so it is repeated and the median reported; the
  // first build also faults its pages in. The machine's speed drifts over
  // tens of seconds, and 200 two-host builds take only ~0.1 s, so those
  // are spread over the run in ten blocks, as msgs_per_s is. Each block
  // after the first rebuilds the workload, and the pass after it re-warms
  // the new build: it is checked but not measured. A 1024-host re-warm
  // costs 2-3 s, so the fat-trees make their 9 builds (~3 s) up front.
  const int setup_blocks = a.short_mode || w->hosts() > 2 ? 1 : 10;
  const int block_builds = a.short_mode ? 3 : (w->hosts() > 2 ? 9 : 20);
  std::vector<SetupTimes> setups;
  const auto setup_block = [&] {
    for (int r = 0; r < block_builds; ++r) {
      if (!setups.empty()) w->teardown();
      setups.push_back(w->build());
    }
  };
  setup_block();
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(std::invoke(field, s));
    return median(v);
  };

  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"cpu_model\": \"%s\", \"threads\": %d, \"shards\": %d, \"hosts\": %d, "
      "\"trace\": %d, \"short\": %s, \"setup_builds\": %d}\n",
      a.workload.c_str(), static_cast<unsigned long long>(*a.seed),
      std::thread::hardware_concurrency(), cpu_model().c_str(), w->threads(),
      w->shards(), w->hosts(), a.trace, a.short_mode ? "true" : "false",
      setup_blocks * block_builds);

  std::uint64_t attempted = 0, failed = 0;
  const auto tally = [&](const Pass& p) {
    attempted += p.msgs;
    failed += p.failed;
  };

  // The first pass grows pools, faults pages in and starts workers; it is
  // kept out of both msgs_per_s and setup_s and reported as warmup_s.
  const Pass warm = w->pass(false);
  tally(warm);

  const int min_rounds = a.short_mode ? 1 : (traced_run ? 2 : 3);
  // Traced and raw passes are compared with the untraced pass of the same
  // round, so the machine's slow drift cancels out of the ratios.
  std::vector<double> wall, trace_overhead, wall_ratio;
  std::vector<Pass> plain;
  std::uint64_t measured_msgs = 0;
  double measured_s = 0;
  // Simulated-clock results come from the first measured, traced and raw
  // passes. A pass's simulated results depend on how many passes its
  // cluster ran before it, and a set-up block rebuilds the cluster at a
  // point in wall time, so only the first passes are at fixed positions.
  Pass first_traced, first_raw;
  Counters ctr{};
  const double t_start = now_s();
  int blocks_done = 1;
  for (int round = 0;
       round < min_rounds || now_s() - t_start < a.seconds; ++round) {
    if (blocks_done < setup_blocks &&
        now_s() - t_start >= a.seconds * blocks_done / setup_blocks) {
      setup_block();
      ++blocks_done;
      tally(w->pass(false));
    }
    w->arm_tamper(a.tamper && round == 0);
    Pass p = w->pass(false);
    w->arm_tamper(false);
    tally(p);
    measured_msgs += p.msgs;
    measured_s += p.wall_s;
    wall.push_back(p.wall_s);
    for (std::size_t i = 0; i < kNumCtrs; ++i) ctr[i] += p.ctr[i];
    plain.push_back(p);
    if (!traced_run) continue;
    Pass traced = w->pass(true);
    tally(traced);
    trace_overhead.push_back(100.0 * (1.0 - p.wall_s / traced.wall_s));
    if (round == 0) first_traced = traced;
    if (w->has_raw()) {
      Pass raw = w->raw_pass();
      tally(raw);
      wall_ratio.push_back(p.wall_s / raw.wall_s);
      if (round == 0) first_raw = raw;
    }
  }

  std::printf("%s: %zu measured passes of %llu messages, warmup %.3f s, "
              "median pass %.3f s, %llu/%llu failed\n",
              a.workload.c_str(), plain.size(),
              static_cast<unsigned long long>(warm.msgs), warm.wall_s,
              median(wall), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("pass wall times (s):");
  for (double t : wall) std::printf(" %.4f", t);
  std::printf("\nset-up: %zu builds, first %.6f s, median %.6f s\n",
              setups.size(), setups.front().total_s(),
              med(&SetupTimes::total_s));

  std::vector<Metric> ms;
  if (!traced_run) {
    // All measured messages over the passes' total wall time, not a median
    // of per-pass rates: a shared machine's speed drifts over tens of
    // seconds, and the total averages its slow and fast stretches where a
    // median jumps to whichever of them holds more passes.
    ms.push_back({"msgs_per_s", measured_msgs / measured_s, "msg/s"});
    ms.push_back({"setup_s", med(&SetupTimes::total_s), "s"});
    ms.push_back({"peak_rss_MB", proc_status_mb("VmHWM"), "MB"});
  } else {
    std::uint64_t events = 0, windows = 0, parks = 0, msgs = 0;
    double run_s = 0;
    for (const Pass& p : plain) {
      events += p.run.events;
      windows += p.run.windows;
      parks += p.run.barrier_crossings;
      msgs += p.msgs;
      run_s += p.run_s;
    }
    const double m = static_cast<double>(msgs);
    const Pass& ref = plain.front();
    ms = {
        {"sim.events_per_msg", events / m, "events/msg"},
        {"sim.events_per_s", ratio(events, run_s), "events/s"},
        {"sim.allocs_per_msg", ctr[kAllocs] / m, "allocs/msg"},
        {"par.events_per_window", ratio(events, windows), "events/window"},
        {"par.parks", static_cast<double>(parks) / plain.size(), "1/pass"},
        {"par.hop_copies_per_msg", ctr[kHopCopies] / m, "copies/msg"},
        {"myrinet.build_s", med(&SetupTimes::cluster_s), "s"},
        {"myrinet.build_MB", setups.front().cluster_mb, "MB"},
        {"fabric.packets_per_msg", ctr[kFabricPackets] / m, "packets/msg"},
        {"nic.retransmissions", static_cast<double>(ctr[kNicRetx]), "count"},
        {"nic.crc_dropped", static_cast<double>(ctr[kNicCrcDropped]),
         "count"},
        {"fabric.dropped", static_cast<double>(ctr[kFabricDropped]), "count"},
        {"pool.hit_ratio", ratio(ctr[kPoolHits], ctr[kPoolAcquires]),
         "ratio"},
        {"copy.endpoint_bytes_per_msg", ctr[kEndpointBytes] / m, "B/msg"},
        {"fm2.packets_per_msg", ctr[kFm2Packets] / m, "packets/msg"},
        {"fm2.handler_resumes_per_msg", ctr[kFm2Resumes] / m, "resumes/msg"},
        {"fm2.credit_packets_per_msg", ctr[kFm2CreditPackets] / m,
         "packets/msg"},
        {"fm2.credit_stalls_per_msg", ctr[kFm2CreditStalls] / m,
         "stalls/msg"},
        {"mpi.posted_hit_ratio", ratio(ctr[kMpiPostedHits], ctr[kMpiRecvs]),
         "ratio"},
        {"mpi.wall_ratio", median(wall_ratio), "ratio"},
        {"mpi.sim_efficiency", ratio(ref.goodput_mbps, first_raw.goodput_mbps),
         "ratio"},
        {"workload.schedule_s", med(&SetupTimes::schedule_s), "s"},
        {"workload.endpoints_s", med(&SetupTimes::endpoints_s), "s"},
        {"warmup_s", warm.wall_s, "s"},
        {"trace.overhead_pct", median(trace_overhead), "%"},
        {"simtime.goodput_MBps", ref.goodput_mbps, "MB/s"},
        {"simtime.lat_p50_us", ref.lat_p50_us, "us"},
        {"simtime.lat_p999_us", ref.lat_p999_us, "us"},
        {"simtime.lat_samples", static_cast<double>(ref.lat_samples),
         "count"},
        {"breakdown.host_us", first_traced.breakdown.host_us, "us"},
        {"breakdown.wire_us", first_traced.breakdown.wire_us, "us"},
        {"breakdown.queue_us", first_traced.breakdown.queue_us, "us"},
        {"breakdown.handler_us", first_traced.breakdown.handler_us, "us"},
        {"traffic.src_queue_p99_us", ref.src_queue_p99_us, "us"},
        {"traffic.transit_p99_us", ref.transit_p99_us, "us"},
        {"traffic.deliver_p99_us", ref.deliver_p99_us, "us"},
    };
    if (a.spans != nullptr && !g_spans.write_chrome(a.spans)) {
      std::fprintf(stderr, "fmbench: cannot write %s\n", a.spans);
    }
    g_spans.print_self_times();
  }
  emit(failed == 0 && attempted > 0, attempted, failed, ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!kMeasurableBuild) {
    std::fprintf(stderr,
                 "fmbench: refusing to report from a sanitizer or "
                 "unoptimised build\n");
    return 3;
  }
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: fmbench --workload mpi_stream|fattree_serial|"
                 "fattree_sharded --seed N --seconds S --trace 0|1 "
                 "[--short] [--tamper] [--spans PATH]\n");
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fmbench: %s\n", e.what());
    return 1;
  }
}
