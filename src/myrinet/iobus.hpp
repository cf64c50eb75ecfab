// I/O bus (SBus / PCI): one shared FIFO-arbitrated resource per node.
// DMA engines and host programmed I/O contend here — on the FM 1.x platform
// this contention *is* the bottleneck the paper's Figure 3a isolates.
#pragma once

#include <cstddef>

#include "myrinet/fault_hooks.hpp"
#include "myrinet/params.hpp"
#include "sim/resource.hpp"

namespace fmx::net {

class IoBus {
 public:
  IoBus(sim::Engine& eng, const IoBusParams& p) : res_(eng), p_(p) {}

  sim::Ps dma_time(std::size_t bytes) const {
    return p_.dma_setup +
           static_cast<sim::Ps>(p_.dma_ps_per_byte *
                                static_cast<double>(bytes));
  }
  sim::Ps pio_time(std::size_t bytes) const {
    return p_.pio_setup +
           static_cast<sim::Ps>(p_.pio_ps_per_byte *
                                static_cast<double>(bytes));
  }

  /// Occupy the bus for a DMA transfer of `bytes` (an occupy() awaiter:
  /// co_await it at once).
  auto dma(std::size_t bytes) {
    return res_.occupy(dma_time(bytes) + stall(bytes));
  }

  /// Occupy the bus for programmed I/O of `bytes`. The caller's host CPU is
  /// also busy for this duration (it is executing the store loop) — callers
  /// should ledger it via Host::note(Cost::kPio, pio_time(bytes)).
  auto pio(std::size_t bytes) {
    return res_.occupy(pio_time(bytes) + stall(bytes));
  }

  /// Arm (or disarm) fault-injected arbitration stalls on this bus.
  void set_fault(FaultInjector* f) noexcept { fault_ = f; }

  const IoBusParams& params() const noexcept { return p_; }
  sim::Ps busy_time() const noexcept { return res_.busy_time(); }
  sim::Ps backlog() const noexcept { return res_.backlog(); }

 private:
  sim::Ps stall(std::size_t bytes) const {
    return fault_ != nullptr ? fault_->bus_stall(bytes) : 0;
  }

  sim::SerialResource res_;
  IoBusParams p_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace fmx::net
