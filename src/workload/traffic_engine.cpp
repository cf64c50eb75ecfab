#include "workload/traffic_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace fmx::workload {
namespace {

// Per-flow payload prefix, written by the sender at injection time and read
// back by the receive handler — the flow's identity and its send-side
// timeline travel with the data, so receivers need no shared lookup table.
struct FlowHdr {
  std::uint64_t flow_id;
  sim::Ps t_sched;  // scheduled (open-loop) arrival, absolute
  sim::Ps t_send;   // injection start (after source-side backlog), absolute
  std::uint64_t pad;
};
static_assert(sizeof(FlowHdr) == 32, "flow header is the minimum flow size");

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

const char* to_string(TrafficPattern p) noexcept {
  switch (p) {
    case TrafficPattern::kUniform: return "uniform";
    case TrafficPattern::kPermutation: return "permutation";
    case TrafficPattern::kIncast: return "incast";
    case TrafficPattern::kHotspot: return "hotspot";
  }
  return "?";
}

Schedule make_schedule(const TrafficConfig& cfg, int n_hosts) {
  assert(n_hosts >= 2);
  Schedule s;
  s.per_host.resize(n_hosts);
  s.flow_id_base.resize(n_hosts);
  s.expected_per_node.assign(n_hosts, 0);

  // Pattern-level structure, derived from the seed alone.
  std::vector<std::uint32_t> perm;
  if (cfg.pattern == TrafficPattern::kPermutation) {
    perm.resize(n_hosts);
    for (int i = 0; i < n_hosts; ++i) perm[i] = static_cast<std::uint32_t>(i);
    sim::Rng prng(mix64(cfg.seed ^ 0x7065726d75746174ull));
    for (int i = n_hosts - 1; i > 0; --i) {
      std::swap(perm[i], perm[prng.uniform(0, i)]);
    }
    // Deranged: a fixed point would make a host its own destination.
    for (int i = 0; i < n_hosts; ++i) {
      if (perm[i] == static_cast<std::uint32_t>(i)) {
        std::swap(perm[i], perm[(i + 1) % n_hosts]);
      }
    }
  }
  std::vector<std::uint32_t> hot;
  if (cfg.pattern == TrafficPattern::kHotspot) {
    const int t = std::max(1, std::min(cfg.hotspot_targets, n_hosts));
    // Strided so hot hosts land in distinct pods of a fat-tree — the
    // congestion is then in the fabric core, not one edge switch.
    for (int i = 0; i < t; ++i) {
      hot.push_back(static_cast<std::uint32_t>(
          static_cast<std::int64_t>(i) * n_hosts / t));
    }
  }
  const int fan_in = std::max(2, cfg.incast_fan_in);

  for (int h = 0; h < n_hosts; ++h) {
    std::int64_t fixed_dst = -1;
    if (cfg.pattern == TrafficPattern::kIncast) {
      const int head = (h / fan_in) * fan_in;
      if (h == head) continue;  // the victim only receives
      fixed_dst = head;
    } else if (cfg.pattern == TrafficPattern::kPermutation) {
      fixed_dst = perm[h];
    }
    // Independent per-host streams: generation order doesn't matter, and
    // host h's flows are identical whatever the cluster around it does.
    sim::Rng rng(mix64(cfg.seed ^ (0x666c6f77ull + h)));
    PoissonArrivals arrivals(cfg.flow_rate_per_host,
                             mix64(cfg.seed ^ (0x61727276ull + h)));
    auto& flows = s.per_host[h];
    flows.reserve(cfg.flows_per_host);
    for (int k = 0; k < cfg.flows_per_host; ++k) {
      Flow f;
      if (fixed_dst >= 0) {
        f.dst = static_cast<std::uint32_t>(fixed_dst);
      } else if (cfg.pattern == TrafficPattern::kHotspot &&
                 rng.bernoulli(cfg.hotspot_fraction)) {
        f.dst = hot[rng.uniform(0, hot.size() - 1)];
        if (f.dst == static_cast<std::uint32_t>(h)) {
          f.dst = (f.dst + 1) % n_hosts;  // hot host sprays its neighbor
        }
      } else {
        auto d = rng.uniform(0, n_hosts - 2);
        if (d >= static_cast<std::uint64_t>(h)) ++d;
        f.dst = static_cast<std::uint32_t>(d);
      }
      const std::size_t sz =
          std::max(sizeof(FlowHdr), cfg.sizes.sample(rng));
      f.size = static_cast<std::uint32_t>(sz);
      f.arrival = arrivals.next();
      s.max_flow_bytes = std::max(s.max_flow_bytes, sz);
      s.horizon = std::max(s.horizon, f.arrival);
      s.expected_per_node[f.dst]++;
      flows.push_back(f);
    }
  }
  std::uint64_t id = 0;
  for (int h = 0; h < n_hosts; ++h) {
    s.flow_id_base[h] = id;
    id += s.per_host[h].size();
  }
  s.total_flows = id;
  return s;
}

struct TrafficEngine::NodeState {
  sim::Engine* eng = nullptr;
  LayerHists* hist = nullptr;  // the node's shard's set
  std::uint32_t got = 0;       // node-local completion count (termination)
  FlowHdr scratch{};           // receive target for the header bytes
};

TrafficEngine::TrafficEngine(net::ParallelCluster& cluster) : cl_(cluster) {
  const int n = cl_.size();
  const trace::Histogram empty(trace::latency_bounds_ps());
  hists_.assign(cl_.n_shards(), {empty, empty, empty, empty, empty});
  eps_.reserve(n);
  nodes_.reserve(n);
  send_buf_.resize(n);
  for (int i = 0; i < n; ++i) {
    eps_.push_back(
        std::make_unique<fm2::Endpoint>(cl_.node(i), cl_.fabric_of(i)));
    auto ns = std::make_unique<NodeState>();
    ns->eng = &cl_.engine_of(i);
    ns->hist = &hists_[cl_.shard_of(i)];
    nodes_.push_back(std::move(ns));
  }
  for (int i = 0; i < n; ++i) {
    eps_[i]->register_handler(
        0, [this, i](fm2::RecvStream& s, int) -> fm2::HandlerTask {
          NodeState& ns = *nodes_[i];
          const sim::Ps t_handler = ns.eng->now();
          co_await s.receive(&ns.scratch, sizeof(FlowHdr));
          const FlowHdr hdr = ns.scratch;
          const sim::Ps t_arrived = s.first_arrival();
          if (s.remaining() > 0) co_await s.skip(s.remaining());
          const sim::Ps t_done = ns.eng->now();
          // src_queue, transit, deliver, handler, e2e
          LayerHists& h = *ns.hist;
          h[0].observe(static_cast<std::uint64_t>(hdr.t_send - hdr.t_sched));
          h[1].observe(static_cast<std::uint64_t>(t_arrived - hdr.t_send));
          h[2].observe(static_cast<std::uint64_t>(t_handler - t_arrived));
          h[3].observe(static_cast<std::uint64_t>(t_done - t_handler));
          h[4].observe(static_cast<std::uint64_t>(t_done - hdr.t_sched));
          done_at_[hdr.flow_id] = t_done;
          ++ns.got;
        });
  }
}

TrafficEngine::~TrafficEngine() = default;

sim::Task<void> TrafficEngine::sender(int src, const Schedule& s,
                                      sim::Ps base) {
  sim::Engine& eng = *nodes_[src]->eng;
  fm2::Endpoint& ep = *eps_[src];
  Bytes& buf = send_buf_[src];
  const auto& flows = s.per_host[src];
  const std::uint64_t id0 = s.flow_id_base[src];
  for (std::size_t k = 0; k < flows.size(); ++k) {
    const Flow& f = flows[k];
    const sim::Ps t_sched = base + f.arrival;
    // Open loop: pace by the schedule. If the previous send overran its
    // slot (credits, NIC queue), now() is already past t_sched and the
    // lateness lands in the src_queue histogram instead of stretching the
    // offered load.
    co_await eng.sleep_until(t_sched);
    FlowHdr hdr{id0 + k, t_sched, eng.now(), 0};
    std::memcpy(buf.data(), &hdr, sizeof hdr);
    co_await ep.send(f.dst, 0, ByteSpan{buf.data(), f.size});
  }
}

sim::Task<void> TrafficEngine::receiver(int dst, std::uint32_t expect) {
  NodeState& ns = *nodes_[dst];
  co_await eps_[dst]->poll_until(
      [&got = ns.got, expect] { return got == expect; });
}

void TrafficEngine::reset_for(const Schedule& s) {
  done_at_.assign(s.total_flows, 0);
  sched_at_.assign(s.total_flows, 0);
  for (LayerHists& hs : hists_) {
    for (trace::Histogram& h : hs) h.reset();
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->got = 0;
    if (send_buf_[i].size() < s.max_flow_bytes) {
      send_buf_[i].resize(s.max_flow_bytes);
      for (std::size_t b = 0; b < send_buf_[i].size(); ++b) {
        send_buf_[i][b] = static_cast<std::byte>((i * 131 + b) & 0xFF);
      }
    }
  }
}

void TrafficEngine::spawn_wave(const Schedule& s) {
  assert(s.per_host.size() == static_cast<std::size_t>(cl_.size()));
  reset_for(s);
  // All roots start at the cluster-wide max clock (see spawn_on) so wave
  // timestamps share one base whatever the previous wave left behind.
  sim::Ps base = 0;
  for (int sh = 0; sh < cl_.n_shards(); ++sh) {
    base = std::max(base, cl_.shard_engine(sh).now());
  }
  wave_base_ = base;
  const int n = cl_.size();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t id0 = s.flow_id_base[i];
    for (std::size_t k = 0; k < s.per_host[i].size(); ++k) {
      sched_at_[id0 + k] = base + s.per_host[i][k].arrival;
    }
    if (!s.per_host[i].empty()) {
      cl_.engine_of(i).spawn_at(base, sender(i, s, base));
    }
    if (s.expected_per_node[i] > 0) {
      cl_.engine_of(i).spawn_at(base, receiver(i, s.expected_per_node[i]));
    }
  }
}

WaveResult TrafficEngine::run_wave(const Schedule& s, int n_threads) {
  spawn_wave(s);
  return collect_wave(s, cl_.run(n_threads));
}

WaveResult TrafficEngine::collect_wave(
    const Schedule& s, const net::ParallelCluster::RunResult& run) {
  const sim::Ps base = wave_base_;
  WaveResult r;
  r.events = run.events;
  r.pending_roots = run.pending_roots;
  Fnv digest;
  for (std::uint64_t f = 0; f < s.total_flows; ++f) {
    if (done_at_[f] != 0) {
      ++r.completed;
      r.makespan = std::max(r.makespan, done_at_[f] - base);
      digest.mix(done_at_[f] - base);
    } else {
      digest.mix(~std::uint64_t{0});
    }
  }
  r.digest = digest.h;

  // Peak concurrency: sweep the +1/-1 edges of every completed flow's
  // [scheduled arrival, completion] interval.
  {
    std::vector<std::pair<sim::Ps, int>> edges;
    edges.reserve(2 * r.completed);
    for (std::uint64_t f = 0; f < s.total_flows; ++f) {
      if (done_at_[f] == 0) continue;
      edges.emplace_back(sched_at_[f], +1);
      edges.emplace_back(done_at_[f], -1);
    }
    std::sort(edges.begin(), edges.end());
    std::int64_t cur = 0, peak = 0;
    for (const auto& [t, d] : edges) {
      cur += d;
      peak = std::max(peak, cur);
    }
    r.peak_concurrent = static_cast<std::uint64_t>(peak);
  }

  // Merge the shard-local histograms.
  static const char* kLayers[] = {"src_queue", "transit", "deliver",
                                  "handler", "e2e"};
  for (std::size_t l = 0; l < std::size(kLayers); ++l) {
    trace::Histogram merged(trace::latency_bounds_ps());
    for (const LayerHists& hs : hists_) merged.merge(hs[l]);
    LayerQuantiles q;
    q.layer = kLayers[l];
    q.count = merged.count();
    q.p50 = merged.quantile(0.50);
    q.p99 = merged.quantile(0.99);
    q.p999 = merged.quantile(0.999);
    r.layers.push_back(q);
  }
  return r;
}

}  // namespace fmx::workload
