// ParallelEngine in isolation: two shards exchanging timed messages through
// SpscSlotRings, exactly the machinery the sharded cluster uses, with the
// cross-band ordering rule checked directly against the scheduler contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/spsc.hpp"

namespace fmx::sim {
namespace {

struct Msg {
  Ps at;
  std::uint64_t key;
  std::uint64_t val;
};

// A ping-pong generator: shard 0 emits values to shard 1 and vice versa,
// each arrival scheduling the next send one lookahead later, recording
// (shard, time, value) into per-shard logs.
struct Harness {
  static constexpr Ps kLookahead = 100;
  static constexpr int kRounds = 50;

  ParallelEngine par{2, kLookahead};
  SpscSlotRing ring01{8, sizeof(Msg)};  // shard 0 -> shard 1
  SpscSlotRing ring10{8, sizeof(Msg)};
  std::vector<std::uint64_t> log[2];
  std::uint64_t key[2] = {0, 0};

  void send(int from, Ps at, std::uint64_t val) {
    SpscSlotRing& r = from == 0 ? ring01 : ring10;
    Msg m{at, key[from]++, val};
    std::byte* slot = r.try_push_slot();
    ASSERT_NE(slot, nullptr);
    std::memcpy(slot, &m, sizeof(m));
    r.commit_push();
    // The other shard reacts to every arrival, so the scheduler must learn
    // about each in-flight message (self-echo / relay coverage).
    par.note_emission(from, 1 - from, at);
  }

  void drain(int shard) {
    SpscSlotRing& r = shard == 0 ? ring10 : ring01;
    std::uint64_t n = 0;
    while (const std::byte* slot = r.front()) {
      Msg m;
      std::memcpy(&m, slot, sizeof(m));
      r.pop();
      ++n;
      par.shard(shard).schedule_cross(m.at, m.key, [this, shard, m] {
        Engine& e = par.shard(shard);
        log[shard].push_back((e.now() << 16) | m.val);
        if (m.val < kRounds) {
          send(shard, e.now() + kLookahead, m.val + 1);
        }
      });
    }
    if (n != 0) par.note_drained(shard, 1 - shard, n);
  }

  struct RunStats {
    std::uint64_t events;
    std::uint64_t windows;
    std::vector<std::uint64_t> log0, log1;
  };

  RunStats run(int threads) {
    par.set_drain(0, [this] { drain(0); });
    par.set_drain(1, [this] { drain(1); });
    // Without these the engine treats every inbox as empty and may stop
    // while a message still sits in a ring with both shards idle.
    par.set_inbox_empty(0, [this] { return ring10.empty(); });
    par.set_inbox_empty(1, [this] { return ring01.empty(); });
    // Kick off: shard 0 sends value 0 arriving at t=1000 on shard 1, via a
    // local event so the first window has work.
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

TEST(ParallelEngine, IdleGapsAreSkipped) {
  ParallelEngine par(2, 10);
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
  ParallelEngine par(3, 1000);
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
