// A cluster node (host CPU + I/O bus + NIC) attached to a fabric. This is
// the hardware platform the FM libraries run on; net::ParallelCluster
// (myrinet/parallel_cluster.hpp) wires N of them into a machine.
#pragma once

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

}  // namespace fmx::net
