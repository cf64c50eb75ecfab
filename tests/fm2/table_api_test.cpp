// The paper-fidelity spellings: Table 1 (FM_send_4 / FM_send / FM_extract)
// and Table 2 (FM_begin_message / FM_send_piece / FM_end_message /
// FM_receive / FM_extract(bytes)) free functions, used exactly as the
// paper writes them (modulo the explicit endpoint argument).
#include <gtest/gtest.h>

#include "fm1/fm1.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

TEST(Table1Api, SendSend4Extract) {
  net::ParallelCluster cl(net::sparc_fm1_cluster(2), 1);
  Engine& eng = cl.shard_engine(0);
  fm1::Endpoint node0(cl.node(0), cl.fabric_of(0));
  fm1::Endpoint node1(cl.node(1), cl.fabric_of(1));
  int got_long = 0, got_quad = 0;
  node1.register_handler(1, [&](int, ByteSpan d) {
    EXPECT_EQ(pattern_mismatch(9, 0, d), -1);
    ++got_long;
  });
  node1.register_handler(2, [&](int, ByteSpan d) {
    ASSERT_EQ(d.size(), 16u);
    std::uint32_t w[4];
    std::memcpy(w, d.data(), 16);
    EXPECT_EQ(w[0] + w[1] + w[2] + w[3], 10u);
    ++got_quad;
  });
  eng.spawn([](fm1::Endpoint& ep) -> Task<void> {
    Bytes buf = pattern_bytes(9, 400);
    co_await fm1::FM_send(ep, 1, 1, ByteSpan{buf});   // Table 1 row 2
    co_await fm1::FM_send_4(ep, 1, 2, 1, 2, 3, 4);    // Table 1 row 1
  }(node0));
  eng.spawn([](fm1::Endpoint& ep, int& a, int& b) -> Task<void> {
    while (a + b < 2) {
      (void)co_await fm1::FM_extract(ep);              // Table 1 row 3
      if (a + b >= 2) break;
      co_await ep.host().compute(sim::us(2));
    }
  }(node1, got_long, got_quad));
  cl.run();
  EXPECT_EQ(got_long, 1);
  EXPECT_EQ(got_quad, 1);
}

TEST(Table2Api, BeginPieceEndReceiveExtract) {
  net::ParallelCluster cl(net::ppro_fm2_cluster(2), 1);
  Engine& eng = cl.shard_engine(0);
  fm2::Endpoint node0(cl.node(0), cl.fabric_of(0));
  fm2::Endpoint node1(cl.node(1), cl.fabric_of(1));
  bool got = false;
  node1.register_handler(5, [&](fm2::RecvStream& stream,
                                int) -> fm2::HandlerTask {
    Bytes head(8), tail(92);
    co_await stream.receive(MutByteSpan{head});   // Table 2: FM_receive
    co_await stream.receive(MutByteSpan{tail});
    EXPECT_EQ(pattern_mismatch(3, 0, ByteSpan{head}), -1);
    EXPECT_EQ(pattern_mismatch(3, 8, ByteSpan{tail}), -1);
    got = true;
  });
  eng.spawn([](fm2::Endpoint& ep) -> Task<void> {
    Bytes msg = pattern_bytes(3, 100);
    // Table 2 rows 1-3.
    fm2::SendStream s = co_await fm2::FM_begin_message(ep, 1, 100, 5);
    co_await fm2::FM_send_piece(ep, s, ByteSpan{msg}.subspan(0, 60));
    co_await fm2::FM_send_piece(ep, s, ByteSpan{msg}.subspan(60));
    co_await fm2::FM_end_message(ep, s);
  }(node0));
  eng.spawn([](fm2::Endpoint& ep, bool& g) -> Task<void> {
    while (!g) {
      (void)co_await fm2::FM_extract(ep, 512);  // Table 2 row 5, budgeted
      if (g) break;
      co_await ep.host().compute(sim::us(2));
      co_await ep.wait_for_traffic();
    }
  }(node1, got));
  cl.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(eng.pending_roots(), 0);
}

}  // namespace
}  // namespace fmx
