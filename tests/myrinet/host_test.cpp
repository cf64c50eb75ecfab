#include "myrinet/host.hpp"

#include <gtest/gtest.h>

#include "myrinet/iobus.hpp"

namespace fmx::net {
namespace {

using sim::Cost;
using sim::Engine;
using sim::Task;

HostParams simple_host() {
  HostParams p;
  p.cpu_hz = 100e6;  // 10 ns per cycle
  p.memcpy_setup = sim::ns(100);
  p.memcpy_ps_per_byte = 10'000;
  p.memcpy_ps_per_byte_uncached = 20'000;
  p.memcpy_cache_threshold = 1024;
  return p;
}

TEST(Host, ChargesAccumulateAndSyncPays) {
  Engine eng;
  Host h(eng, 0, simple_host());
  h.charge(Cost::kCall, sim::ns(500));
  h.charge(Cost::kMatch, sim::ns(300));
  EXPECT_EQ(h.pending(), sim::ns(800));
  eng.spawn([](Engine& e, Host& host) -> Task<void> {
    co_await host.sync();
    EXPECT_EQ(e.now(), sim::ns(800));
    co_await host.sync();  // nothing pending: no time passes
    EXPECT_EQ(e.now(), sim::ns(800));
  }(eng, h));
  eng.run();
  EXPECT_EQ(h.pending(), 0u);
  EXPECT_EQ(h.ledger().of(Cost::kCall), sim::ns(500));
  EXPECT_EQ(h.ledger().of(Cost::kMatch), sim::ns(300));
}

TEST(Host, ChargeCyclesConverts) {
  Engine eng;
  Host h(eng, 0, simple_host());
  h.charge_cycles(Cost::kOther, 100);  // 100 cycles at 100 MHz = 1 us
  EXPECT_EQ(h.pending(), sim::us(1));
}

TEST(Host, CopyMovesBytesAndCharges) {
  Engine eng;
  Host h(eng, 0, simple_host());
  Bytes src = pattern_bytes(5, 256);
  Bytes dst(256);
  h.copy(MutByteSpan{dst}, ByteSpan{src});
  EXPECT_EQ(dst, src);
  EXPECT_EQ(h.ledger().copies(), 1u);
  EXPECT_EQ(h.ledger().copied_bytes(), 256u);
  EXPECT_EQ(h.pending(), sim::ns(100) + 256 * sim::ns(10));
}

TEST(Host, MemcpyTwoRegimes) {
  Engine eng;
  Host h(eng, 0, simple_host());
  // Below threshold: 10 ns/B. Above: 20 ns/B.
  EXPECT_EQ(h.memcpy_cost(100), sim::ns(100) + 100 * sim::ns(10));
  EXPECT_EQ(h.memcpy_cost(2048), sim::ns(100) + 2048 * sim::ns(20));
}

TEST(Host, NoteLedgersWithoutDelay) {
  Engine eng;
  Host h(eng, 0, simple_host());
  h.note(Cost::kPio, sim::us(3));
  EXPECT_EQ(h.pending(), 0u);
  EXPECT_EQ(h.ledger().of(Cost::kPio), sim::us(3));
}

TEST(IoBus, TransferTimes) {
  Engine eng;
  IoBusParams p;
  p.dma_setup = sim::ns(500);
  p.dma_ps_per_byte = 10'000;
  p.pio_setup = sim::ns(200);
  p.pio_ps_per_byte = 20'000;
  IoBus bus(eng, p);
  EXPECT_EQ(bus.dma_time(100), sim::ns(500) + sim::ns(1000));
  EXPECT_EQ(bus.pio_time(100), sim::ns(200) + sim::ns(2000));
}

TEST(IoBus, DmaAndPioContend) {
  Engine eng;
  IoBusParams p;
  p.dma_setup = 0;
  p.dma_ps_per_byte = 10'000;
  p.pio_setup = 0;
  p.pio_ps_per_byte = 10'000;
  IoBus bus(eng, p);
  sim::Ps t_dma = 0, t_pio = 0;
  eng.spawn([](Engine& e, IoBus& b, sim::Ps& t) -> Task<void> {
    co_await b.dma(1000);  // 10 us
    t = e.now();
  }(eng, bus, t_dma));
  eng.spawn([](Engine& e, IoBus& b, sim::Ps& t) -> Task<void> {
    co_await b.pio(1000);  // queued behind the DMA
    t = e.now();
  }(eng, bus, t_pio));
  eng.run();
  EXPECT_EQ(t_dma, sim::us(10));
  EXPECT_EQ(t_pio, sim::us(20));
  EXPECT_EQ(bus.busy_time(), sim::us(20));
}

TEST(Presets, SparcAndPProDiffer) {
  auto sparc = sparc_fm1_cluster();
  auto ppro = ppro_fm2_cluster();
  EXPECT_LT(sparc.host.cpu_hz, ppro.host.cpu_hz);
  EXPECT_LT(sparc.nic.mtu_payload, ppro.nic.mtu_payload);
  EXPECT_GT(sparc.bus.pio_ps_per_byte, 0.0);
  EXPECT_GT(sparc.fabric.link_ps_per_byte, ppro.fabric.link_ps_per_byte);
}

}  // namespace
}  // namespace fmx::net
