// FM 2.x correctness must be platform-independent: the same protocol runs
// on the Sparc-era and PPro-era presets and on deliberately odd platform
// parameters (tiny MTU, tiny rings, minimal credits). Parameterized sweep.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "fault/injector.hpp"
#include "fm1/fm1.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/random.hpp"

namespace fmx::fm2 {
namespace {

using sim::Engine;
using sim::Task;

struct PlatformCase {
  const char* name;
  net::ClusterParams (*make)();
  double wire_corrupt = 0.0;  ///< per-packet corruption rate on the wire
};

// gtest puts the printed parameter into each listed test name. The default
// printer dumps the struct's raw bytes, which are pointers that move with
// every run under ASLR; print the case name so the names are stable.
void PrintTo(const PlatformCase& c, std::ostream* os) { *os << c.name; }

net::ClusterParams odd_platform() {
  auto p = net::ppro_fm2_cluster(2);
  p.nic.mtu_payload = 48;  // barely above the 16-byte header
  p.nic.host_ring_slots = 6;
  p.nic.sram_rx_slots = 2;
  p.nic.tx_queue_slots = 2;
  p.nic.sram_tx_slots = 1;
  return p;
}

net::ClusterParams sparc_platform() { return net::sparc_fm1_cluster(2); }
net::ClusterParams ppro_platform() { return net::ppro_fm2_cluster(2); }
net::ClusterParams reliable_platform() {
  auto p = net::ppro_fm2_cluster(2);
  p.nic.reliable_link = true;
  return p;
}

class Fm2PlatformSweep : public ::testing::TestWithParam<PlatformCase> {};

TEST_P(Fm2PlatformSweep, MixedTrafficIntegrity) {
  net::ParallelCluster cl(GetParam().make(), 1);
  Engine& eng = cl.shard_engine(0);
  std::vector<std::unique_ptr<fault::PlanInjector>> injectors;
  if (GetParam().wire_corrupt > 0) {
    fault::FaultPlan plan = fault::FaultPlan::clean();
    plan.wire.corrupt = GetParam().wire_corrupt;
    injectors = fault::arm(cl, plan);
  }
  Endpoint tx(cl.node(0), cl.fabric_of(0));
  Endpoint rx(cl.node(1), cl.fabric_of(1));
  constexpr int kMsgs = 25;
  int seen = 0;
  rx.register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    Bytes buf(s.msg_bytes());
    if (!buf.empty()) co_await s.receive(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(seen, 0, ByteSpan{buf}), -1)
        << "msg " << seen << " on " << ::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name();
    ++seen;
  });
  eng.spawn([](Endpoint& ep) -> Task<void> {
    sim::Rng rng(5);
    for (std::size_t i = 0; i < kMsgs; ++i) {
      Bytes m = pattern_bytes(i, rng.uniform(0, 3000));
      co_await ep.send(1, 0, ByteSpan{m});
    }
  }(tx));
  eng.spawn([](Endpoint& ep, int& n) -> Task<void> {
    co_await ep.poll_until([&] { return n == kMsgs; });
  }(rx, seen));
  cl.run();
  EXPECT_EQ(seen, kMsgs);
  EXPECT_EQ(eng.pending_roots(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, Fm2PlatformSweep,
    ::testing::Values(PlatformCase{"sparc", sparc_platform},
                      PlatformCase{"ppro", ppro_platform},
                      PlatformCase{"odd", odd_platform},
                      PlatformCase{"lossy_reliable", reliable_platform,
                                   0.2}),
    [](const auto& pinfo) { return pinfo.param.name; });

TEST(Fm2Limits, MessageBeyond16BitPacketIndexThrows) {
  auto p = net::ppro_fm2_cluster(2);
  p.nic.mtu_payload = 32;  // seg = 16 B -> 65535 packets ~ 1 MB limit
  net::ParallelCluster cl(p, 1);
  Engine& eng = cl.shard_engine(0);
  Endpoint tx(cl.node(0), cl.fabric_of(0));
  Endpoint rx(cl.node(1), cl.fabric_of(1));
  eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes huge(16u * 65536u);
    EXPECT_THROW((void)co_await ep.begin_message(1, huge.size(), 0),
                 std::length_error);
  }(tx));
  cl.run();
}

TEST(Fm1Limits, MessageBeyond16BitPacketIndexThrows) {
  auto p = net::sparc_fm1_cluster(2);  // seg = 112 B
  net::ParallelCluster cl(p, 1);
  Engine& eng = cl.shard_engine(0);
  ::fmx::fm1::Endpoint tx(cl.node(0), cl.fabric_of(0));
  ::fmx::fm1::Endpoint rx(cl.node(1), cl.fabric_of(1));
  eng.spawn([](::fmx::fm1::Endpoint& ep) -> Task<void> {
    Bytes huge(112u * 65536u);
    EXPECT_THROW(co_await ep.send(1, 0, ByteSpan{huge}), std::length_error);
  }(tx));
  cl.run();
}

TEST(Fm2Limits, ExtractBudgetExactPacketBoundary) {
  net::ParallelCluster cl(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cl.shard_engine(0);
  Endpoint tx(cl.node(0), cl.fabric_of(0));
  Endpoint rx(cl.node(1), cl.fabric_of(1));
  int seen = 0;
  rx.register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    co_await s.skip(s.remaining());
    ++seen;
  });
  // Messages exactly one packet-payload long (seg bytes).
  std::size_t seg = rx.max_payload_per_packet();
  eng.spawn([](Endpoint& ep, std::size_t sz) -> Task<void> {
    Bytes m(sz);
    for (int i = 0; i < 4; ++i) co_await ep.send(1, 0, ByteSpan{m});
  }(tx, seg));
  eng.spawn([](Engine& e, Endpoint& ep, std::size_t sz,
               int& n) -> Task<void> {
    co_await e.delay(sim::ms(1));
    // A budget of exactly one packet's data processes exactly one message.
    EXPECT_EQ(co_await ep.extract(sz), 1);
    EXPECT_EQ(n, 1);
    co_await ep.poll_until([&] { return n == 4; });
  }(eng, rx, seg, seen));
  cl.run();
  EXPECT_EQ(seen, 4);
}

}  // namespace
}  // namespace fmx::fm2
