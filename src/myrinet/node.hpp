// A cluster node (host CPU + I/O bus + NIC) and the Cluster aggregate that
// wires N nodes to a shared fabric. This is the hardware platform the FM
// libraries run on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "myrinet/fabric.hpp"
#include "myrinet/host.hpp"
#include "myrinet/iobus.hpp"
#include "myrinet/nic.hpp"
#include "myrinet/params.hpp"
#include "sim/engine.hpp"

namespace fmx::net {

class Node {
 public:
  Node(sim::Engine& eng, int id, const ClusterParams& p, Fabric& fabric)
      : host_(eng, id, p.host),
        bus_(eng, p.bus),
        nic_(eng, id, p.nic, bus_, fabric) {
    nic_.start();
  }

  int id() const noexcept { return host_.id(); }
  Host& host() noexcept { return host_; }
  IoBus& bus() noexcept { return bus_; }
  Nic& nic() noexcept { return nic_; }

 private:
  Host host_;
  IoBus bus_;
  Nic nic_;
};

/// Bind a fabric's and its buffer pool's live counters into a tracer's
/// metrics registry so tests and benches can query them by name. Views
/// only: the hot paths keep bumping plain fields.
inline void expose_fabric_metrics(trace::MetricsRegistry& m, Fabric& f) {
  const Fabric::Stats& fs = f.stats();
  m.expose("fabric.packets", &fs.packets);
  m.expose("fabric.payload_bytes", &fs.payload_bytes);
  m.expose("fabric.corrupted", &fs.corrupted);
  m.expose("fabric.dropped", &fs.dropped);
  m.expose("fabric.duplicated", &fs.duplicated);
  m.expose("fabric.delayed", &fs.delayed);
  const BufferPool::Stats& ps = f.pool().stats();
  m.expose("pool.acquires", &ps.acquires);
  m.expose("pool.hits", &ps.pool_hits);
  m.expose("pool.misses", &ps.fresh_allocs);
  m.expose("pool.releases", &ps.releases);
}

/// Per-node NIC, host-ledger and registration-cache counters, named
/// "node<id>.<layer>.<counter>".
inline void expose_node_metrics(trace::MetricsRegistry& m, Node& n) {
  const std::string pre = "node" + std::to_string(n.id()) + ".";
  const Nic::Stats& ns = n.nic().stats();
  m.expose(pre + "nic.tx_packets", &ns.tx_packets);
  m.expose(pre + "nic.rx_packets", &ns.rx_packets);
  m.expose(pre + "nic.crc_dropped", &ns.crc_dropped);
  m.expose(pre + "nic.retransmissions", &ns.retransmissions);
  m.expose(pre + "nic.acks_sent", &ns.acks_sent);
  m.expose(pre + "nic.seq_dropped", &ns.seq_dropped);
  m.expose(pre + "nic.coll_rx_packets", &ns.coll_rx_packets);
  m.expose(pre + "nic.coll_combines", &ns.coll_combines);
  m.expose(pre + "nic.coll_forwards", &ns.coll_forwards);
  m.expose(pre + "nic.coll_completions", &ns.coll_completions);
  m.expose(pre + "nic.coll_orphaned", &ns.coll_orphaned);
  m.expose(pre + "nic.coll_stale", &ns.coll_stale);
  const sim::CostLedger& hl = n.host().ledger();
  m.expose(pre + "host.copies", hl.copies_cell());
  m.expose(pre + "host.copied_bytes", hl.copied_bytes_cell());
  m.expose(pre + "host.pool_misses", hl.allocs_cell());
  m.expose(pre + "host.pool_miss_bytes", hl.alloc_bytes_cell());
  const RegCache::Stats& rs = n.host().reg_cache().stats();
  m.expose(pre + "regcache.hits", &rs.hits);
  m.expose(pre + "regcache.misses", &rs.misses);
  m.expose(pre + "regcache.evictions", &rs.evictions);
  m.expose(pre + "regcache.coalesces", &rs.coalesces);
  m.expose(pre + "regcache.pinned_bytes", &rs.pinned_bytes);
}

class Cluster {
 public:
  Cluster(sim::Engine& eng, const ClusterParams& p)
      : eng_(eng), params_(p), fabric_(eng, p.fabric, p.n_hosts) {
    nodes_.reserve(p.n_hosts);
    for (int i = 0; i < p.n_hosts; ++i) {
      nodes_.push_back(std::make_unique<Node>(eng, i, p, fabric_));
    }
    expose_fabric_metrics(fabric_.tracer().metrics(), fabric_);
    for (const auto& n : nodes_) {
      expose_node_metrics(fabric_.tracer().metrics(), *n);
    }
  }

  sim::Engine& engine() noexcept { return eng_; }
  int size() const noexcept { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return *nodes_.at(i); }
  Fabric& fabric() noexcept { return fabric_; }
  const ClusterParams& params() const noexcept { return params_; }

 private:
  sim::Engine& eng_;
  ClusterParams params_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace fmx::net
