// Alternate data-movement modes: FM 1.x with DMA send (instead of its
// native PIO) and FM 2.x with PIO send (instead of its native DMA) — the
// cross-generation ablation axes must stay functionally correct.
#include <gtest/gtest.h>

#include "fm1/fm1.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

TEST(FmModes, Fm1DmaSendCorrect) {
  net::ParallelCluster cl(net::sparc_fm1_cluster(2), 1);
  Engine& eng = cl.shard_engine(0);
  fm1::Config cfg;
  cfg.pio_send = false;  // DMA fetch from host memory instead of PIO
  fm1::Endpoint tx(cl.node(0), cl.fabric_of(0), cfg);
  fm1::Endpoint rx(cl.node(1), cl.fabric_of(1), cfg);
  int got = 0;
  rx.register_handler(0, [&](int, ByteSpan data) {
    EXPECT_EQ(pattern_mismatch(got, 0, data), -1);
    ++got;
  });
  eng.spawn([](fm1::Endpoint& ep) -> Task<void> {
    for (std::size_t i = 0; i < 10; ++i) {
      Bytes m = pattern_bytes(i, 300 + 50 * i);
      co_await ep.send(1, 0, ByteSpan{m});
    }
  }(tx));
  eng.spawn([](fm1::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == 10; });
  }(rx, got));
  cl.run();
  EXPECT_EQ(got, 10);
  EXPECT_EQ(eng.pending_roots(), 0);
}

TEST(FmModes, Fm2PioSendCorrect) {
  net::ParallelCluster cl(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cl.shard_engine(0);
  fm2::Config cfg;
  cfg.pio_send = true;
  fm2::Endpoint tx(cl.node(0), cl.fabric_of(0), cfg);
  fm2::Endpoint rx(cl.node(1), cl.fabric_of(1), cfg);
  int got = 0;
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    Bytes buf(s.msg_bytes());
    co_await s.receive(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(got, 0, ByteSpan{buf}), -1);
    ++got;
  });
  eng.spawn([](fm2::Endpoint& ep) -> Task<void> {
    for (std::size_t i = 0; i < 10; ++i) {
      Bytes m = pattern_bytes(i, 2000);
      co_await ep.send(1, 0, ByteSpan{m});
    }
  }(tx));
  eng.spawn([](fm2::Endpoint& ep, int& g) -> Task<void> {
    co_await ep.poll_until([&] { return g == 10; });
  }(rx, got));
  cl.run();
  EXPECT_EQ(got, 10);
}

TEST(FmModes, Fm1PioBeatsDmaOnTheSparcPlatform) {
  // Why did FM 1.x use programmed I/O at all? Because on the Sparc, DMA
  // send requires first copying into a pinned buffer at ~50 ns/B, which
  // costs more than pushing the bytes over the SBus directly at ~16 ns/B.
  // The simulation reproduces the design rationale.
  auto bw = [](bool pio) {
    net::ParallelCluster cl(net::sparc_fm1_cluster(2), 1);
    Engine& eng = cl.shard_engine(0);
    fm1::Config cfg;
    cfg.pio_send = pio;
    fm1::Endpoint tx(cl.node(0), cl.fabric_of(0), cfg);
    fm1::Endpoint rx(cl.node(1), cl.fabric_of(1), cfg);
    int got = 0;
    rx.register_handler(0, [&](int, ByteSpan) { ++got; });
    constexpr int kN = 60;
    sim::Ps t_end = 0;
    eng.spawn([](fm1::Endpoint& ep) -> Task<void> {
      Bytes m(2048);
      for (int i = 0; i < kN; ++i) co_await ep.send(1, 0, ByteSpan{m});
    }(tx));
    eng.spawn([](Engine& e, fm1::Endpoint& ep, int& g,
                 sim::Ps& end) -> Task<void> {
      co_await ep.poll_until([&] { return g == kN; });
      end = e.now();
    }(eng, rx, got, t_end));
    cl.run();
    return 2048.0 * kN / sim::to_seconds(t_end);
  };
  double with_pio = bw(true);
  double with_dma = bw(false);
  EXPECT_GT(with_pio, with_dma);
}

TEST(FmModes, Fm2ExtractUnlimitedEqualsTable1Semantics) {
  // extract() with no budget behaves like FM 1.x's drain-everything.
  net::ParallelCluster cl(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cl.shard_engine(0);
  fm2::Endpoint tx(cl.node(0), cl.fabric_of(0));
  fm2::Endpoint rx(cl.node(1), cl.fabric_of(1));
  int got = 0;
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    co_await s.skip(s.remaining());
    ++got;
  });
  eng.spawn([](fm2::Endpoint& ep) -> Task<void> {
    for (int i = 0; i < 12; ++i) {
      Bytes m(100);
      co_await ep.send(1, 0, ByteSpan{m});
    }
  }(tx));
  eng.spawn([](Engine& e, fm2::Endpoint& ep, int& g) -> Task<void> {
    co_await e.delay(sim::ms(1));  // let everything land
    int n = co_await ep.extract();  // one unlimited extract
    EXPECT_EQ(n, 12);
    EXPECT_EQ(g, 12);
  }(eng, rx, got));
  cl.run();
  EXPECT_EQ(got, 12);
}

}  // namespace
}  // namespace fmx
