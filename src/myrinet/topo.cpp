#include "myrinet/topo.hpp"

#include <cassert>
#include <cstdlib>

namespace fmx::net {

std::uint64_t Topo::ecmp_hash(int src, int dst, std::uint32_t flow) noexcept {
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                     << 32) |
                    static_cast<std::uint32_t>(dst);
  x ^= static_cast<std::uint64_t>(flow) * 0x9E3779B97F4A7C15ull;
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Topo::Topo(const FabricParams& p, int n_hosts)
    : kind_(p.topology), n_hosts_(n_hosts) {
  assert(n_hosts >= 1);
  if (kind_ == TopologyKind::kChain) {
    hosts_per_switch_ = p.hosts_per_switch;
    n_switches_ =
        (n_hosts + hosts_per_switch_ - 1) / hosts_per_switch_;
    base_right_ = 2 * n_hosts_;
    base_left_ = base_right_ + (n_switches_ - 1);
    n_links_ = 2 * n_hosts_ + 2 * (n_switches_ - 1);
    max_path_len_ = n_switches_ + 1;
    return;
  }

  // Fat-tree. Radix must be even and >= 2; the tree may be partially
  // populated (hosts fill edge switches in order), but never overfull.
  const int k = p.fat_tree_radix;
  assert(k >= 2 && k % 2 == 0 && "fat-tree radix must be even");
  assert(p.oversubscription >= 1);
  assert(n_hosts <= fat_tree_capacity(k, p.oversubscription) &&
         "fat-tree radix/oversubscription cannot host n_hosts");
  half_ = k / 2;
  pods_ = k;
  hosts_per_edge_ = half_ * p.oversubscription;
  const int n_edges = pods_ * half_;
  const int n_aggs = pods_ * half_;
  const int n_cores = half_ * half_;
  n_switches_ = n_edges + n_aggs + n_cores;
  max_path_len_ = 6;

  base_ea_ = 2 * n_hosts_;
  base_ae_ = base_ea_ + n_edges * half_;
  base_ac_ = base_ae_ + n_aggs * half_;
  base_ca_ = base_ac_ + n_aggs * half_;
  n_links_ = base_ca_ + n_cores * pods_;
}

int Topo::hops(int src, int dst) const noexcept {
  if (src == dst) return 0;
  if (kind_ == TopologyKind::kChain) {
    return 1 + std::abs(src / hosts_per_switch_ - dst / hosts_per_switch_);
  }
  const int e_s = src / hosts_per_edge_;
  const int e_d = dst / hosts_per_edge_;
  if (e_s == e_d) return 1;                            // same edge switch
  if (pod_of_edge(e_s) == pod_of_edge(e_d)) return 3;  // edge-agg-edge
  return 5;                                            // via the core
}

int Topo::ecmp_paths(int src, int dst) const noexcept {
  if (src == dst || kind_ == TopologyKind::kChain) return 1;
  const int e_s = src / hosts_per_edge_;
  const int e_d = dst / hosts_per_edge_;
  if (e_s == e_d) return 1;
  if (pod_of_edge(e_s) == pod_of_edge(e_d)) return half_;
  return half_ * half_;
}

int Topo::link_at(int src, int dst, std::uint32_t flow, int i) const noexcept {
  if (i == 0) return src;  // uplink
  if (kind_ == TopologyKind::kChain) {
    const int s0 = src / hosts_per_switch_;
    const int t = dst / hosts_per_switch_;
    const int inter = std::abs(s0 - t);
    if (i == inter + 1) return n_hosts_ + dst;  // downlink
    // i-th transit hop (1-based): rightward walks right_[s0 + i - 1],
    // leftward walks left_[s0 - i] — the exact order the old scratch-path
    // route() pushed, so link reservation order (and timing) is unchanged.
    return s0 < t ? base_right_ + (s0 + i - 1) : base_left_ + (s0 - i);
  }

  const int len = path_len(src, dst);
  if (i == len - 1) return n_hosts_ + dst;  // downlink
  const int e_s = src / hosts_per_edge_;
  const int e_d = dst / hosts_per_edge_;
  const std::uint64_t h = ecmp_hash(src, dst, flow);
  const int j = static_cast<int>(h % static_cast<std::uint64_t>(half_));
  if (len == 4) {
    // Same pod: up to agg j, back down to the destination edge.
    if (i == 1) return base_ea_ + e_s * half_ + j;
    const int a = pod_of_edge(e_s) * half_ + j;
    return base_ae_ + a * half_ + e_d % half_;
  }
  // Cross pod (len == 6): agg j up to core column c2, down through the
  // destination pod's agg j.
  const int c2 = static_cast<int>((h / static_cast<std::uint64_t>(half_)) %
                                  static_cast<std::uint64_t>(half_));
  switch (i) {
    case 1:
      return base_ea_ + e_s * half_ + j;
    case 2: {
      const int a_s = pod_of_edge(e_s) * half_ + j;
      return base_ac_ + a_s * half_ + c2;
    }
    case 3: {
      const int c = j * half_ + c2;
      return base_ca_ + c * pods_ + pod_of_edge(e_d);
    }
    default: {
      const int a_d = pod_of_edge(e_d) * half_ + j;
      return base_ae_ + a_d * half_ + e_d % half_;
    }
  }
}

std::vector<int> Topo::path(int src, int dst, std::uint32_t flow) const {
  std::vector<int> out;
  if (src == dst) return out;
  const int len = path_len(src, dst);
  out.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) out.push_back(link_at(src, dst, flow, i));
  return out;
}

int Topo::level_from(int link) const noexcept {
  if (is_uplink(link)) return 0;
  if (kind_ == TopologyKind::kChain) return 1;  // downlink or transit
  if (is_downlink(link)) return 1;
  if (link < base_ae_) return 1;  // edge -> agg
  if (link < base_ac_) return 2;  // agg -> edge
  if (link < base_ca_) return 2;  // agg -> core
  return 3;                       // core -> agg
}

int Topo::level_to(int link) const noexcept {
  if (is_uplink(link)) return 1;
  if (kind_ == TopologyKind::kChain) {
    return is_downlink(link) ? 0 : 1;
  }
  if (is_downlink(link)) return 0;
  if (link < base_ae_) return 2;  // edge -> agg
  if (link < base_ac_) return 1;  // agg -> edge
  if (link < base_ca_) return 3;  // agg -> core
  return 2;                       // core -> agg
}

}  // namespace fmx::net
