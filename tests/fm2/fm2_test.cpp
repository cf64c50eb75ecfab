#include "fm2/fm2.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "myrinet/parallel_cluster.hpp"
#include "sim/random.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx::fm2 {
namespace {

using sim::Engine;
using sim::Task;

struct World {
  explicit World(net::ClusterParams p, Config cfg = {}) : cluster(p, 1) {
    for (int i = 0; i < p.n_hosts; ++i) {
      eps.push_back(std::make_unique<Endpoint>(cluster.node(i),
                                               cluster.fabric_of(i), cfg));
    }
  }
  Endpoint& ep(int i) { return *eps[i]; }

  net::ParallelCluster cluster;
  Engine& eng = cluster.shard_engine(0);
  std::vector<std::unique_ptr<Endpoint>> eps;
};

TEST(Fm2, BasicSendReceive) {
  World w(net::ppro_fm2_cluster(2));
  Bytes msg = pattern_bytes(1, 100);
  bool got = false;
  w.ep(1).register_handler(7, [&](RecvStream& s, int src) -> HandlerTask {
    EXPECT_EQ(src, 0);
    EXPECT_EQ(s.msg_bytes(), 100u);
    Bytes buf(100);
    co_await s.receive(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(1, 0, ByteSpan{buf}), -1);
    got = true;
  });
  w.eng.spawn([](Endpoint& ep, ByteSpan m) -> Task<void> {
    co_await ep.send(1, 7, m);
  }(w.ep(0), ByteSpan{msg}));
  w.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    co_await ep.poll_until([&] { return g; });
  }(w.ep(1), got));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));
  EXPECT_TRUE(got);
}

TEST(Fm2, PaperHandlerExample) {
  // The exact pattern from §4.1: read a header piece, then steer the
  // payload by what the header says.
  struct MsgHeader {
    std::uint32_t length;
    std::uint32_t littlemsg;
  };
  World w(net::ppro_fm2_cluster(2));
  Bytes little(64), big(3000);
  bool done = false;
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    MsgHeader h;
    co_await s.receive(&h, sizeof(h));
    if (h.littlemsg) {
      co_await s.receive(little.data(), h.length);
    } else {
      co_await s.receive(big.data(), h.length);
    }
    done = true;
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    MsgHeader h{3000, 0};
    Bytes payload = pattern_bytes(9, 3000);
    const ByteSpan pieces[] = {as_bytes_of(h), ByteSpan{payload}};
    co_await ep.send_gather(1, 0, pieces);
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, bool& d) -> Task<void> {
    co_await ep.poll_until([&] { return d; });
  }(w.ep(1), done));
  w.cluster.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(pattern_mismatch(9, 0, ByteSpan{big}.subspan(0, 3000)), -1);
}

TEST(Fm2, GatherScatterPieceSizesNeedNotMatch) {
  World w(net::ppro_fm2_cluster(2));
  Bytes whole = pattern_bytes(3, 777);
  Bytes out(777);
  bool done = false;
  // Send as 3 pieces of 100/377/300; receive as 7 pieces of 111 each.
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    std::size_t off = 0;
    for (int i = 0; i < 7; ++i) {
      co_await s.receive(out.data() + off, 111);
      off += 111;
    }
    EXPECT_EQ(s.remaining(), 0u);
    done = true;
  });
  w.eng.spawn([](Endpoint& ep, ByteSpan m) -> Task<void> {
    SendStream s = co_await ep.begin_message(1, m.size(), 0);
    co_await ep.send_piece(s, m.subspan(0, 100));
    co_await ep.send_piece(s, m.subspan(100, 377));
    co_await ep.send_piece(s, m.subspan(477, 300));
    co_await ep.end_message(s);
  }(w.ep(0), ByteSpan{whole}));
  w.eng.spawn([](Endpoint& ep, bool& d) -> Task<void> {
    co_await ep.poll_until([&] { return d; });
  }(w.ep(1), done));
  w.cluster.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(out, whole);
}

TEST(Fm2, HandlerStartsBeforeMessageComplete) {
  // The stream abstraction pipelines: the handler must observe the header
  // while later packets of the same message are still in flight.
  World w(net::ppro_fm2_cluster(2));
  std::size_t msg_bytes_at_first_receive = 0;
  std::size_t fed_at_first_receive = 0;
  bool done = false;
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    Bytes hdr(16);
    co_await s.receive(MutByteSpan{hdr});
    msg_bytes_at_first_receive = s.msg_bytes();
    fed_at_first_receive = s.available() + 16;
    co_await s.skip(s.remaining());
    done = true;
  });
  constexpr std::size_t kBig = 64 * 1024;
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(kBig);
    co_await ep.send(1, 0, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, bool& d) -> Task<void> {
    co_await ep.poll_until([&] { return d; });
  }(w.ep(1), done));
  w.cluster.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(msg_bytes_at_first_receive, kBig);
  // When the handler first ran, most of the message had NOT yet arrived.
  EXPECT_LT(fed_at_first_receive, kBig / 2);
}

TEST(Fm2, InterleavedSendersEachGetTheirOwnHandlerThread) {
  World w(net::ppro_fm2_cluster(3));
  constexpr std::size_t kBig = 32 * 1024;
  int done = 0;
  std::size_t max_active = 0;
  w.ep(2).register_handler(0, [&](RecvStream& s, int src) -> HandlerTask {
    Bytes buf(s.msg_bytes());
    co_await s.receive(MutByteSpan{buf});
    EXPECT_EQ(pattern_mismatch(src, 0, ByteSpan{buf}), -1);
    ++done;
  });
  for (int src = 0; src < 2; ++src) {
    w.eng.spawn([](Endpoint& ep, int me) -> Task<void> {
      Bytes m = pattern_bytes(me, kBig);
      co_await ep.send(2, 0, ByteSpan{m});
    }(w.ep(src), src));
  }
  w.eng.spawn([](Endpoint& ep, int& d, std::size_t& act) -> Task<void> {
    while (d < 2) {
      (void)co_await ep.extract();
      act = std::max(act, ep.active_handlers());
      if (d >= 2) break;
      co_await ep.host().compute(sim::us(2));
    }
  }(w.ep(2), done, max_active));
  w.cluster.run();
  EXPECT_EQ(done, 2);
  // Both handlers were live at once: transparent handler multithreading.
  EXPECT_EQ(max_active, 2u);
  EXPECT_EQ(w.ep(2).stats().handler_starts, 2u);
}

TEST(Fm2, ReceiverFlowControlLimitsExtraction) {
  World w(net::ppro_fm2_cluster(2));
  constexpr std::size_t kMsg = 16 * 1024;
  std::size_t received = 0;
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    Bytes buf(s.msg_bytes());
    co_await s.receive(MutByteSpan{buf});
    received += buf.size();
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(kMsg);
    co_await ep.send(1, 0, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, std::size_t& rec) -> Task<void> {
    // Extract in 2 KB portions: the message should take several extracts.
    int extracts = 0;
    while (rec < kMsg) {
      (void)co_await ep.extract(2048);
      ++extracts;
      if (rec >= kMsg) break;
      co_await ep.host().compute(sim::us(5));
    }
    EXPECT_GE(extracts, 6);  // 16 KB at ~2 KB per call
  }(w.ep(1), received));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));
  EXPECT_EQ(received, kMsg);
}

TEST(Fm2, UnextractedDataWithholdsCreditsAndPacesSender) {
  Config cfg;
  cfg.credits_per_peer = 4;
  World w(net::ppro_fm2_cluster(2), cfg);
  w.ep(1).register_handler(0, [](RecvStream& s, int) -> HandlerTask {
    co_await s.skip(s.remaining());
  });
  int sent = 0;
  w.eng.spawn([](Endpoint& ep, int& s) -> Task<void> {
    for (int i = 0; i < 16; ++i) {
      Bytes m(64);
      co_await ep.send(1, 0, ByteSpan{m});
      ++s;
    }
  }(w.ep(0), sent));
  w.cluster.run();
  // Receiver never extracted: sender stalled after its credit allowance.
  EXPECT_EQ(sent, 4);
  EXPECT_EQ(w.eng.pending_roots(), 1);
  w.eng.spawn([](Endpoint& ep, int& s) -> Task<void> {
    co_await ep.poll_until([&] { return s == 16; });
  }(w.ep(1), sent));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));
  EXPECT_EQ(sent, 16);
}

TEST(Fm2, HandlerEarlyReturnSkipsRestOfMessage) {
  World w(net::ppro_fm2_cluster(2));
  int handled = 0;
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    Bytes first(8);
    co_await s.receive(MutByteSpan{first});
    ++handled;
    co_return;  // 4 KB of payload left unread -> FM must discard it
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      Bytes m(4096 + 8);
      co_await ep.send(1, 0, ByteSpan{m});
    }
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    co_await ep.poll_until([&] { return ep.stats().msgs_received == 3; });
  }(w.ep(1)));
  w.cluster.run();
  // All three messages completed despite early returns.
  EXPECT_EQ(handled, 3);
  EXPECT_EQ(w.ep(1).stats().msgs_received, 3u);
}

TEST(Fm2, ZeroLengthMessage) {
  World w(net::ppro_fm2_cluster(2));
  bool got = false;
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    EXPECT_EQ(s.msg_bytes(), 0u);
    got = true;
    co_return;
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    co_await ep.send(1, 0, {});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    co_await ep.poll_until([&] { return g; });
  }(w.ep(1), got));
  w.cluster.run();
  EXPECT_TRUE(got);
}

TEST(Fm2, BackToBackMessagesSameSource) {
  World w(net::ppro_fm2_cluster(2));
  constexpr int kN = 30;
  int seen = 0;
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    std::uint32_t id;
    co_await s.receive(&id, 4);
    EXPECT_EQ(id, static_cast<std::uint32_t>(seen));
    Bytes rest(s.remaining());
    co_await s.receive(MutByteSpan{rest});
    EXPECT_EQ(pattern_mismatch(id, 4, ByteSpan{rest}), -1);
    ++seen;
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    for (std::uint32_t i = 0; i < kN; ++i) {
      Bytes m = pattern_bytes(i, 700);
      std::memcpy(m.data(), &i, 4);
      co_await ep.send(1, 0, ByteSpan{m});
    }
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, int& n) -> Task<void> {
    co_await ep.poll_until([&] { return n == kN; });
  }(w.ep(1), seen));
  w.cluster.run();
  EXPECT_EQ(seen, kN);
}

// Two coroutines on host 1 send multi-packet messages to host 0 at once, so
// the packets of the second (seq 1) arrive while the first is unfinished
// and queue behind it; host 2 sends in between. The receiver's contexts are
// pooled, so the backlog moves from the retiring context into the next.
TEST(Fm2, ConcurrentMessagesFromOneSourceQueueBehindTheFirst) {
  // Return threshold 1, so every freed slot goes home. Three credits
  // outnumber the second message's packets, so its backlog can never hold
  // the credits the first one still needs.
  Config cfg;
  cfg.credits_per_peer = 3;
  World w(net::ppro_fm2_cluster(3), cfg);
  ASSERT_EQ(w.ep(0).credit_return_threshold(), 1);
  const std::size_t seg = w.ep(1).max_payload_per_packet();
  const std::size_t len = seg + seg / 2;  // 2 packets each
  const Bytes a = pattern_bytes(11, len);
  const Bytes b = pattern_bytes(12, len);
  const Bytes c = pattern_bytes(13, len);
  struct Got {
    int src;
    Bytes bytes;
  };
  std::vector<Got> got;
  std::size_t max_backlog = 0;
  std::size_t max_active = 0;
  Endpoint& rx = w.ep(0);
  rx.register_handler(0, [&](RecvStream& s, int src) -> HandlerTask {
    Bytes buf(s.msg_bytes());
    for (std::size_t off = 0; off < buf.size();) {
      const std::size_t n = std::min(seg / 3, buf.size() - off);
      co_await s.receive(buf.data() + off, n);
      off += n;
      max_backlog = std::max(max_backlog, rx.backlogged_packets());
      max_active = std::max(max_active, rx.active_handlers());
    }
    got.push_back({src, std::move(buf)});
  });
  auto send = [](Endpoint& ep, ByteSpan m) -> Task<void> {
    co_await ep.send(0, 0, m);
  };
  w.eng.spawn(send(w.ep(1), ByteSpan{a}));
  w.eng.spawn(send(w.ep(1), ByteSpan{b}));
  w.eng.spawn(send(w.ep(2), ByteSpan{c}));
  w.eng.spawn([](Endpoint& ep, const std::vector<Got>& g) -> Task<void> {
    co_await ep.poll_until([&] { return g.size() == 3; });
  }(rx, got));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));

  ASSERT_EQ(got.size(), 3u);
  std::vector<Bytes> from1;
  for (const Got& g : got) {
    if (g.src == 1) {
      from1.push_back(g.bytes);
    } else {
      EXPECT_EQ(g.bytes, c);
    }
  }
  ASSERT_EQ(from1.size(), 2u);
  EXPECT_EQ(from1[0], a);  // sequence order: a began first
  EXPECT_EQ(from1[1], b);
  EXPECT_GT(max_backlog, 0u) << "the second message never queued";
  EXPECT_EQ(max_active, 2u) << "hosts 1 and 2 never overlapped";
  EXPECT_EQ(rx.backlogged_packets(), 0u);
  EXPECT_EQ(rx.active_handlers(), 0u);

  // Settle: the senders extract the credit packets still in their rings.
  for (int round = 0; round < 10; ++round) {
    for (int i : {1, 2}) {
      w.eng.spawn([](Endpoint& ep) -> Task<void> {
        (void)co_await ep.extract();
      }(w.ep(i)));
    }
    ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));
  }
  for (int i : {1, 2}) {
    EXPECT_EQ(w.ep(i).credits_available(0), cfg.credits_per_peer)
        << "sender " << i;
    EXPECT_EQ(rx.credits_pending_return(i), 0) << "sender " << i;
  }
}

TEST(Fm2, SendPieceOverflowThrows) {
  World w(net::ppro_fm2_cluster(2));
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    SendStream s = co_await ep.begin_message(1, 10, 0);
    Bytes big(11);
    EXPECT_THROW(co_await ep.send_piece(s, ByteSpan{big}), std::logic_error);
  }(w.ep(0)));
  w.cluster.run();
}

TEST(Fm2, EndBeforeFullComposeThrows) {
  World w(net::ppro_fm2_cluster(2));
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    SendStream s = co_await ep.begin_message(1, 10, 0);
    Bytes five(5);
    co_await ep.send_piece(s, ByteSpan{five});
    EXPECT_THROW(co_await ep.end_message(s), std::logic_error);
  }(w.ep(0)));
  w.cluster.run();
}

TEST(Fm2, ReceiveBeyondMessageEndThrows) {
  World w(net::ppro_fm2_cluster(2));
  bool checked = false;
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    Bytes buf(100);
    EXPECT_THROW(co_await s.receive(MutByteSpan{buf}), std::logic_error);
    checked = true;
    co_return;
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(10);  // handler will ask for 100
    co_await ep.send(1, 0, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, bool& c) -> Task<void> {
    co_await ep.poll_until([&] { return c; });
  }(w.ep(1), checked));
  w.cluster.run();
  EXPECT_TRUE(checked);
}

TEST(Fm2, HandlerExceptionPropagatesToExtract) {
  World w(net::ppro_fm2_cluster(2));
  w.ep(1).register_handler(0, [](RecvStream&, int) -> HandlerTask {
    throw std::runtime_error("handler blew up");
    co_return;  // unreachable; makes this a coroutine
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(8);
    co_await ep.send(1, 0, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    for (;;) {
      (void)co_await ep.extract();
      co_await ep.host().compute(sim::us(1));
    }
  }(w.ep(1)));
  EXPECT_THROW(w.cluster.run(), std::runtime_error);
}

TEST(Fm2, WholeMessageAblationDelaysHandlerStart) {
  Config cfg;
  cfg.whole_message_handlers = true;
  World w(net::ppro_fm2_cluster(2), cfg);
  std::size_t available_at_start = 0;
  bool done = false;
  constexpr std::size_t kBig = 32 * 1024;
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    available_at_start = s.available();
    co_await s.skip(s.remaining());
    done = true;
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(kBig);
    co_await ep.send(1, 0, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, bool& d) -> Task<void> {
    co_await ep.poll_until([&] { return d; });
  }(w.ep(1), done));
  w.cluster.run();
  ASSERT_TRUE(done);
  // In whole-message mode the handler saw the entire message buffered.
  EXPECT_EQ(available_at_start, kBig);
}

TEST(Fm2, LongMessageDoesNotBlockOtherSenders) {
  // §4.1: "one long message from one sender does not block other senders."
  // A small message from node 1 must be delivered while node 0's bulk
  // message to the same receiver is still in flight.
  auto params = net::ppro_fm2_cluster(3);
  params.nic.host_ring_slots = 512;
  Config cfg;
  cfg.credits_per_peer = 192;
  World w(params, cfg);
  constexpr std::size_t kBulk = 96 * 1024;
  sim::Ps bulk_done_at = 0, small_done_at = 0;
  Bytes sink(kBulk);
  w.ep(2).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    co_await s.receive(sink.data(), s.msg_bytes());
    bulk_done_at = w.eng.now();
  });
  w.ep(2).register_handler(1, [&](RecvStream& s, int) -> HandlerTask {
    co_await s.skip(s.remaining());
    small_done_at = w.eng.now();
  });
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(kBulk);
    co_await ep.send(2, 0, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Engine& e, Endpoint& ep) -> Task<void> {
    co_await e.delay(sim::us(200));  // bulk transfer well underway
    Bytes m(32);
    co_await ep.send(2, 1, ByteSpan{m});
  }(w.eng, w.ep(1)));
  w.eng.spawn([](Endpoint& ep, sim::Ps& b, sim::Ps& s) -> Task<void> {
    co_await ep.poll_until([&] { return b != 0 && s != 0; });
  }(w.ep(2), bulk_done_at, small_done_at));
  w.cluster.run();
  ASSERT_NE(bulk_done_at, 0u);
  ASSERT_NE(small_done_at, 0u);
  // The small message finished well before the bulk one.
  EXPECT_LT(small_done_at, bulk_done_at);
}

TEST(Fm2, WholeMessageDeliveryDeadlocksBeyondCreditWindow) {
  // The structural argument for layer interleaving: with whole-message
  // delivery, nothing is consumed until the full message arrived, but with
  // consumption-based credits nothing more can arrive once the window is
  // exhausted. Messages larger than the window deadlock; interleaved
  // handlers dissolve the cycle.
  Config whole;
  whole.whole_message_handlers = true;
  whole.credits_per_peer = 8;  // window: 8 packets ~ 8 KB
  World w(net::ppro_fm2_cluster(2), whole);
  bool got = false;
  w.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    co_await s.skip(s.remaining());
    got = true;
  });
  constexpr std::size_t kBig = 64 * 1024;  // far beyond the window
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(kBig);
    co_await ep.send(1, 0, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    co_await ep.poll_until([&] { return g; });
  }(w.ep(1), got));
  w.cluster.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(w.eng.pending_roots(), 2);  // both sides wedged

  // Identical setup with interleaving on: completes.
  Config inter;
  inter.credits_per_peer = 8;
  World w2(net::ppro_fm2_cluster(2), inter);
  bool got2 = false;
  w2.ep(1).register_handler(0, [&](RecvStream& s, int) -> HandlerTask {
    co_await s.skip(s.remaining());
    got2 = true;
  });
  w2.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(kBig);
    co_await ep.send(1, 0, ByteSpan{m});
  }(w2.ep(0)));
  w2.eng.spawn([](Endpoint& ep, bool& g) -> Task<void> {
    co_await ep.poll_until([&] { return g; });
  }(w2.ep(1), got2));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w2.cluster));
  EXPECT_TRUE(got2);
}

TEST(Fm2, UnregisteredHandlerDropsMessage) {
  World w(net::ppro_fm2_cluster(2));
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(500);
    co_await ep.send(1, 42, ByteSpan{m});  // no handler 42 on the receiver
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    co_await ep.poll_until([&] { return ep.stats().msgs_received == 1; });
  }(w.ep(1)));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));
  EXPECT_EQ(w.ep(1).stats().msgs_received, 1u);
  EXPECT_EQ(w.ep(1).stats().handler_starts, 0u);
}

// The handler table grows on registration up to id 255. A packet naming an
// id with no handler, inside the table or past its end, is consumed and
// dropped.
TEST(Fm2, HandlerIdsUpTo255UnregisteredDropped) {
  World w(net::ppro_fm2_cluster(2));
  int got = 0;
  w.ep(1).register_handler(200, [&](RecvStream& s, int) -> HandlerTask {
    co_await s.skip(s.msg_bytes());
    ++got;
  });
  EXPECT_THROW(w.ep(1).register_handler(256, nullptr), std::out_of_range);
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    Bytes m(500);
    co_await ep.send(1, 100, ByteSpan{m});  // inside the table, no handler
    co_await ep.send(1, 255, ByteSpan{m});  // past the table's end
    co_await ep.send(1, 200, ByteSpan{m});
  }(w.ep(0)));
  w.eng.spawn([](Endpoint& ep) -> Task<void> {
    co_await ep.poll_until([&] { return ep.stats().msgs_received == 3; });
  }(w.ep(1)));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));
  EXPECT_EQ(w.ep(1).stats().handler_starts, 1u);
  EXPECT_EQ(got, 1);
}

class Fm2PropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(Fm2PropertyTest, RandomGatherScatterIntegrity) {
  auto [max_size, seed] = GetParam();
  World w(net::ppro_fm2_cluster(2));
  sim::Rng rng(seed);
  constexpr int kMsgs = 25;
  std::vector<std::size_t> sizes;
  for (int i = 0; i < kMsgs; ++i) sizes.push_back(rng.uniform(1, max_size));
  int seen = 0;
  // Receive each message in randomly-sized chunks.
  auto rng2 = std::make_shared<sim::Rng>(seed + 1);
  w.ep(1).register_handler(0, [&, rng2](RecvStream& s, int) -> HandlerTask {
    Bytes buf(s.msg_bytes());
    std::size_t off = 0;
    while (off < buf.size()) {
      std::size_t n = std::min<std::size_t>(
          rng2->uniform(1, 512), buf.size() - off);
      co_await s.receive(buf.data() + off, n);
      off += n;
    }
    EXPECT_EQ(pattern_mismatch(2000 + seen, 0, ByteSpan{buf}), -1);
    ++seen;
  });
  w.eng.spawn([](Endpoint& ep, const std::vector<std::size_t>& sz,
                 std::uint64_t sd) -> Task<void> {
    sim::Rng r(sd + 2);
    for (std::size_t i = 0; i < sz.size(); ++i) {
      Bytes m = pattern_bytes(2000 + i, sz[i]);
      // Send in randomly-sized pieces.
      SendStream s = co_await ep.begin_message(1, m.size(), 0);
      std::size_t off = 0;
      while (off < m.size()) {
        std::size_t n =
            std::min<std::size_t>(r.uniform(1, 700), m.size() - off);
        co_await ep.send_piece(s, ByteSpan{m}.subspan(off, n));
        off += n;
      }
      co_await ep.end_message(s);
    }
  }(w.ep(0), sizes, static_cast<std::uint64_t>(seed)));
  w.eng.spawn([](Endpoint& ep, int& n) -> Task<void> {
    co_await ep.poll_until([&] { return n == kMsgs; });
  }(w.ep(1), seen));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(w.cluster));
  EXPECT_EQ(seen, kMsgs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fm2PropertyTest,
    ::testing::Combine(::testing::Values(64, 2000, 20000),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace fmx::fm2
