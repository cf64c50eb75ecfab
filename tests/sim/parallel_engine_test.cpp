// ParallelEngine in isolation: two shards exchanging timed messages through
// the engine's own mailboxes (post() + Transport::deliver), exactly the
// path the sharded cluster uses, with the cross-band ordering rule checked
// directly against the scheduler contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/spsc.hpp"

namespace fmx::sim {
namespace {

// A ping-pong generator: shard 0 emits values to shard 1 and vice versa,
// each arrival scheduling the next send one lookahead later, recording
// (shard, time, value) into per-shard logs.
struct Harness {
  static constexpr Ps kLookahead = 100;
  static constexpr int kRounds = 50;

  ParallelEngine par{2, std::vector<Ps>(2 * 2, kLookahead), transport()};
  std::vector<std::uint64_t> log[2];
  std::uint64_t next_key[2] = {0, 0};

  ParallelEngine::Transport transport() {
    ParallelEngine::Transport t;
    t.deliver = [this](int dst, Ps head, std::uint64_t key,
                       std::span<const std::byte> body) {
      std::uint64_t val;
      std::memcpy(&val, body.data(), sizeof(val));
      par.shard(dst).schedule_cross(head, key, [this, dst, val] {
        Engine& e = par.shard(dst);
        log[dst].push_back((e.now() << 16) | val);
        if (val < kRounds) send(dst, e.now() + kLookahead, val + 1);
      });
    };
    return t;
  }

  void send(int from, Ps at, std::uint64_t val) {
    par.post(from, 1 - from, at, next_key[from]++, sizeof(val),
             [val](std::byte* out) { std::memcpy(out, &val, sizeof(val)); });
  }

  struct RunStats {
    std::uint64_t events;
    std::uint64_t windows;
    std::vector<std::uint64_t> log0, log1;
  };

  RunStats run(int threads) {
    // Kick off: shard 0 sends value 0 arriving at t=1000 on shard 1, via a
    // local event so the first quantum has work.
    par.shard(0).schedule_at(0, [this] { send(0, 1000, 0); });
    auto r = par.run(threads);
    return RunStats{r.events, r.windows, log[0], log[1]};
  }
};

TEST(ParallelEngine, PingPongIdenticalAt1And2Threads) {
  Harness a, b;
  auto r1 = a.run(1);
  auto r2 = b.run(2);
  EXPECT_EQ(r1.events, r2.events);
  // Quantum boundaries depend on thread timing (windows is a meter, not a
  // simulated quantity) — only the simulated results must match.
  EXPECT_EQ(r1.log0, r2.log0);
  EXPECT_EQ(r1.log1, r2.log1);
  // 51 arrivals alternate between the shards, shard 1 first.
  EXPECT_EQ(r1.log0.size() + r1.log1.size(),
            static_cast<std::size_t>(Harness::kRounds + 1));
  EXPECT_EQ(r1.log1.front() & 0xFFFF, 0u);
}

// Between hops both shards are idle and the only work left sits in a
// mailbox, so a termination sweep that ever missed an undrained message
// would end a run early, silently. Repeat enough 2-thread runs that such a
// race cannot hide.
TEST(ParallelEngine, PingPongNeverStopsEarlyAt2Threads) {
  for (int i = 0; i < 2000; ++i) {
    Harness h;
    const auto r = h.run(2);
    ASSERT_EQ(r.log0.size() + r.log1.size(),
              static_cast<std::size_t>(Harness::kRounds + 1))
        << "run " << i << " stopped early";
  }
}

// One event fills a mailbox past its ring (the rest spills) and posts a
// body too big for any slot. Drain order is ring first, then spill, and
// keys are posted in descending order — yet every message must run exactly
// once, in key order, with its body intact.
TEST(ParallelEngine, MailboxOverflowDeliversEveryMessageInKeyOrder) {
  constexpr std::uint64_t kSmall = ParallelEngine::kMailboxSlots * 3 / 2;
  constexpr std::size_t kBigBytes = 2 * ParallelEngine::kMailboxSlotBytes;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<std::uint64_t> ran;  // keys, in execution order
    int bad_bodies = 0;
    ParallelEngine::Transport t;
    ParallelEngine* engine = nullptr;
    t.deliver = [&](int dst, Ps head, std::uint64_t key,
                    std::span<const std::byte> body) {
      if (key == 0) {
        bad_bodies += body.size() != kBigBytes;
        for (const std::byte b : body) bad_bodies += b != std::byte{0x5A};
      } else {
        std::uint64_t v = 0;
        bad_bodies += body.size() != sizeof(v);
        std::memcpy(&v, body.data(), sizeof(v));
        bad_bodies += v != key;
      }
      engine->shard(dst).schedule_cross(head, key,
                                        [&ran, key] { ran.push_back(key); });
    };
    ParallelEngine par(2, std::vector<Ps>(2 * 2, 100), std::move(t));
    engine = &par;
    par.shard(0).schedule_at(0, [&par] {
      for (std::uint64_t key = kSmall; key >= 1; --key) {
        par.post(0, 1, 1000, key, sizeof(key), [key](std::byte* out) {
          std::memcpy(out, &key, sizeof(key));
        });
      }
      par.post(0, 1, 1000, 0, kBigBytes, [](std::byte* out) {
        std::memset(out, 0x5A, kBigBytes);
      });
    });
    const auto r = par.run(threads);
    EXPECT_EQ(bad_bodies, 0);
    ASSERT_EQ(ran.size(), kSmall + 1);
    for (std::uint64_t i = 0; i <= kSmall; ++i) EXPECT_EQ(ran[i], i);
    EXPECT_EQ(r.events, kSmall + 2);
  }
}

TEST(ParallelEngine, IdleGapsAreSkipped) {
  ParallelEngine par(2, std::vector<Ps>(2 * 2, 10), {});
  std::vector<Ps> fired;
  // Events ten million ps apart: window-by-window stepping would need ~1e6
  // windows; idle-skip must land one window per event cluster.
  for (Ps t = 0; t < 5; ++t) {
    par.shard(t % 2 ? 1 : 0).schedule_at(t * 10'000'000,
                                         [&fired, &par, t] {
                                           fired.push_back(
                                               par.shard(t % 2 ? 1 : 0).now());
                                         });
  }
  auto r = par.run(1);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_LE(r.windows, 5u);
}

// The soundness argument in sim/parallel.hpp relies on a metric-closed
// lookahead matrix: the 0 -> 1 -> 2 relay (10 + 10) must tighten the
// direct 100 ps bound in both directions, and adjacent pairs keep theirs.
TEST(ParallelEngine, LookaheadMatrixIsMetricClosed) {
  ParallelEngine par(3, {0, 10, 100, 10, 0, 10, 100, 10, 0}, {});
  EXPECT_EQ(par.lookahead(0, 2), 20u);
  EXPECT_EQ(par.lookahead(2, 0), 20u);
  EXPECT_EQ(par.lookahead(0, 1), 10u);
  EXPECT_EQ(par.lookahead(1, 0), 10u);
  EXPECT_EQ(par.lookahead(1, 2), 10u);
  EXPECT_EQ(par.lookahead(2, 1), 10u);
}

TEST(ParallelEngine, CrossBandOrdersAfterLocalEventsAtSameTime) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_cross(50, 7, [&order] { order.push_back(3); });
  eng.schedule_cross(50, 2, [&order] { order.push_back(2); });
  eng.schedule_at(50, SmallFn{[&order] { order.push_back(1); }});
  eng.run();
  // Local events first (counter band), then cross events by key.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelEngine, SpawnedRootsAndPendingRootsAggregate) {
  ParallelEngine par(3, std::vector<Ps>(3 * 3, 1000), {});
  // Atomic: the three roots live on different shards, so with 2 worker
  // threads two of them can retire this counter concurrently.
  std::atomic<int> done{0};
  for (int s = 0; s < 3; ++s) {
    par.shard(s).spawn([](Engine& e, std::atomic<int>& d) -> Task<void> {
      co_await e.delay(500);
      co_await e.delay(1500);
      d.fetch_add(1, std::memory_order_relaxed);
    }(par.shard(s), done));
  }
  auto r = par.run(2);
  EXPECT_EQ(done.load(), 3);
  EXPECT_EQ(r.pending_roots, 0);
  EXPECT_GE(r.events, 6u);
}

TEST(SpscSlotRing, FillDrainWrap) {
  SpscSlotRing r(4, 8);
  EXPECT_EQ(r.capacity(), 4u);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      std::byte* s = r.try_push_slot();
      ASSERT_NE(s, nullptr);
      std::memcpy(s, &i, sizeof(i));
      r.commit_push();
    }
    EXPECT_EQ(r.try_push_slot(), nullptr);  // full
    for (std::uint64_t i = 0; i < 4; ++i) {
      const std::byte* s = r.front();
      ASSERT_NE(s, nullptr);
      std::uint64_t v;
      std::memcpy(&v, s, sizeof(v));
      EXPECT_EQ(v, i);
      r.pop();
    }
    EXPECT_TRUE(r.empty());
  }
}

}  // namespace
}  // namespace fmx::sim
