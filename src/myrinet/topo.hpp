// Fabric topology descriptor: the pure routing geometry of a cluster,
// independent of the simulation engine. A Topo owns the directed-link id
// space and computes each hop's link id in closed form from the switch
// indices at transmit time — no tables and no per-call scratch path, so
// route lookup is O(1) per hop, allocation-free, and has no
// valid-until-next-call aliasing.
//
// Two topologies:
//   * kChain    — the original preset: crossbar switches of hosts_per_switch
//                 ports chained left/right. Single path per pair.
//   * kFatTree  — 3-level k-ary fat-tree/Clos (Leiserson; the standard
//                 datacenter folded-Clos). Radix-k switches, k pods of k/2
//                 edge and k/2 aggregation switches, (k/2)^2 cores. An
//                 oversubscription factor o packs (k/2)*o hosts per edge
//                 switch, thinning the host:uplink ratio to o:1 — the knob
//                 that turns fan-in traffic into real incast pain.
//
// Multipath: a fat-tree pair separated by >1 hop has (k/2) (same pod) or
// (k/2)^2 (cross pod) equal-cost paths. Path choice is a deterministic
// ECMP hash of (src, dst, flow): same flow, same path — packets of one
// flow stay ordered end to end (links are FIFO), while distinct pairs and
// flows spread across the aggregation and core layers.
//
// Directed-link id space (dense, stable):
//   [0, n)                  uplinks        host h -> its first switch
//   [n, 2n)                 downlinks      last switch -> host h
//   [2n, ...)               transit links  (chain: right then left;
//                                           fat-tree: edge->agg, agg->edge,
//                                           agg->core, core->agg)
// Uplinks and transit links cost link_latency + switch_latency (flight plus
// the routing decision at the switch they enter); the final downlink costs
// link_latency only — identical to the original chained-crossbar model.
#pragma once

#include <cstdint>
#include <vector>

#include "myrinet/params.hpp"

namespace fmx::net {

class Topo {
 public:
  /// Lays out the link ids for `n_hosts` hosts under the topology
  /// described by `p` (kind, hosts_per_switch / radix, oversubscription).
  /// Fat-trees may be partially populated: any n_hosts up to capacity.
  Topo(const FabricParams& p, int n_hosts);

  int n_hosts() const noexcept { return n_hosts_; }
  int n_links() const noexcept { return n_links_; }
  int n_switches() const noexcept { return n_switches_; }

  /// Host capacity of a fat-tree with the given radix/oversubscription:
  /// k pods * (k/2) edges * (k/2)*o hosts. (Chains have no fixed cap.)
  static int fat_tree_capacity(int radix, int oversub) noexcept {
    const int half = radix / 2;
    return radix * half * half * oversub;
  }

  // --- Path queries (all O(1), no shared scratch) -------------------------
  /// Switch traversals between two hosts (0 for src == dst). Equal for
  /// every ECMP path of a pair, and symmetric in (src, dst).
  int hops(int src, int dst) const noexcept;
  /// Links on the (src, dst) path: hops + 1. Undefined for src == dst
  /// (loopback never touches a link).
  int path_len(int src, int dst) const noexcept {
    return hops(src, dst) + 1;
  }
  /// The i-th directed link (0 <= i < path_len) on the ECMP path the flow
  /// hash selects for (src, dst, flow). Pure index arithmetic.
  int link_at(int src, int dst, std::uint32_t flow, int i) const noexcept;
  /// Number of equal-cost paths between the pair (1 for chains).
  int ecmp_paths(int src, int dst) const noexcept;
  /// Longest path_len any pair can have (sizing helper for callers).
  int max_path_len() const noexcept { return max_path_len_; }

  /// Whole path as a fresh vector — test/debug inspection only; the data
  /// path uses link_at directly and never materializes a path.
  std::vector<int> path(int src, int dst, std::uint32_t flow) const;

  /// First-level switch a host hangs off (chain crossbar index or fat-tree
  /// edge-switch index). Hosts sharing it are one wire hop apart — the
  /// clustering the NIC collective tree builder (myrinet/coll.hpp) exploits.
  int first_switch(int host) const noexcept {
    return kind_ == TopologyKind::kChain ? host / hosts_per_switch_
                                         : host / hosts_per_edge_;
  }

  // --- Link metadata ------------------------------------------------------
  int uplink(int host) const noexcept { return host; }
  int downlink(int host) const noexcept { return n_hosts_ + host; }
  bool is_uplink(int link) const noexcept { return link < n_hosts_; }
  bool is_downlink(int link) const noexcept {
    return link >= n_hosts_ && link < 2 * n_hosts_;
  }
  /// Level of the element a link leaves / enters: hosts are level 0,
  /// edge (or chain crossbar) switches level 1, aggregation 2, core 3.
  /// An up*/down* (deadlock-free) path never goes up after coming down;
  /// the topology invariant tests check exactly this.
  int level_from(int link) const noexcept;
  int level_to(int link) const noexcept;

  /// Deterministic ECMP hash (splitmix64 over the packed triple). Exposed
  /// so tests can predict path selection.
  static std::uint64_t ecmp_hash(int src, int dst,
                                 std::uint32_t flow) noexcept;

 private:
  int pod_of_edge(int e) const noexcept { return e / half_; }

  TopologyKind kind_;
  int n_hosts_ = 0;
  int n_switches_ = 0;
  int n_links_ = 0;
  int max_path_len_ = 0;

  // Chain geometry.
  int hosts_per_switch_ = 1;
  int base_right_ = 0;  // right_[s] = base_right_ + s,  s in [0, nsw-1)
  int base_left_ = 0;   // left_[s]  = base_left_  + s   (switch s+1 -> s)

  // Fat-tree geometry.
  int half_ = 0;            // k/2
  int pods_ = 0;            // k
  int hosts_per_edge_ = 0;  // half * oversubscription
  // Transit link ids, by (switch, port):
  //   base_ea_ + e*half + j    edge e        -> agg j of its pod
  //   base_ae_ + a*half + i    agg  a        -> i-th edge of its pod
  //   base_ac_ + a*half + c2   agg  a (=j)   -> core (j, c2)
  //   base_ca_ + c*pods + p    core c        -> its agg in pod p
  int base_ea_ = 0, base_ae_ = 0, base_ac_ = 0, base_ca_ = 0;
};

}  // namespace fmx::net
