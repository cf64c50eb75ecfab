// Conservative parallel discrete-event execution (Chandy–Misra-style
// lookahead, PAPERS.md parallel-simulation entries).
//
// The cluster is partitioned into shards, each owning a private Engine.
// Earlier revisions advanced all shards in lockstep windows of one global
// lookahead (two sense-reversing barriers per 850 ns window — ~10 events of
// useful work per crossing). This revision replaces the barriers with a
// *published-horizon* scheme:
//
//   - A per-pair lookahead matrix L[src][dst] (metric-closed at
//     construction) bounds how fast anything can propagate between each
//     pair of shards; shards that are topologically far apart synchronize
//     loosely even when busy.
//   - Each shard continuously publishes, per destination, a conservative
//     lower bound on the head-arrival time of any cross-shard message it
//     may still emit. The static bound is next_event_time() + L[s][d]; the
//     client's Transport may sharpen it with dynamic state (for the
//     Myrinet fabric: the source uplink's next-free time, which during
//     streaming sits many microseconds ahead — see
//     myrinet/parallel_cluster.cpp).
//   - A worker advances a shard by (1) reading every peer's published
//     bound for it (padded atomics, acquire) and taking the min, (2)
//     draining its inbound mailboxes, (3) running events strictly below
//     the bound in one quantum, (4) republishing its own row (release). No
//     barrier on the hot path; idle gaps are crossed in the same step
//     because bounds are absolute times, not widths.
//
// Cross-shard messages travel through mailboxes the engine owns, one per
// ordered shard pair: post() is the only way to emit, and the engine
// itself drains, counts, and checks them for emptiness, so no client can
// leave a message stranded or a bucket unretired. The Transport handed to
// the constructor only turns drained bytes back into events (deliver)
// and, optionally, sharpens the emission bound.
//
// Soundness (why no in-flight message can be missed): three mechanisms
// cover the three ways a message can be in flight. (a) Direct: a worker
// loads pub[A][s] *before* draining, and post() commits a mailbox slot
// *before* its emitter republishes, so any message invisible to the drain
// was emitted by an event A executed after its publish; engines execute
// events in nondecreasing time order, so its head is >= the published
// bound. (b) Relays: a message X -> Y sitting undrained in Y's mailbox can
// wake an idle Y into emitting toward s below Y's (stale) promise. The
// emitter therefore tracks an *in-flight bucket* per destination (opened
// by post()) and folds `bucket min head + L[Y][d]` into every entry of
// its own published row until Y's covering publish retires the bucket
// (per-pair covered counters, advanced by Y's drains); L is
// metric-closed, so the relay term through Y is never below the true
// relayed arrival. (c) Self-echo: nothing publishes a promise *to s about
// s*, so s caps its own bound by its open buckets' echo terms (head +
// L[dst][s]) and lowers a live cap mid-quantum when it emits — a message
// s sends can wake a peer whose reply must not land inside s's
// already-running quantum. The full induction is written out in
// EXPERIMENTS.md ("Parallel simulation").
//
// Progress: the shard owning the globally minimal event m always has
// bound >= m + min L > m, so a full pass over all shards either executes
// at least one event or proves global quiescence. A lone worker checks
// quiescence directly after a pass without progress. With two or more,
// stalled workers spin, then yield, then park on a condvar; the last
// parker performs an exclusive termination sweep (all engines idle, all
// mailboxes empty).
//
// Determinism: cross-shard events order by explicit keys in a sequence
// band above all local events (Engine::kCrossSeqBand), so per-shard pop
// order is a pure function of simulated state — never of quantum
// boundaries or drain timing — and every simulated result is
// bit-identical at any thread count, including 1, for a fixed shard
// count. Only the *meters* (windows, barrier_crossings) depend on
// scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/spsc.hpp"
#include "sim/time.hpp"

namespace fmx::sim {

class ParallelEngine {
 public:
  /// The client's side of cross-shard messaging.
  struct Transport {
    /// Turns one drained message into events on shard(dst), normally one
    /// Engine::schedule_cross(head, key, ...). Runs on dst's owning worker
    /// while the engine drains dst's mailboxes; `body` is valid only for
    /// the duration of the call.
    std::function<void(int dst, Ps head, std::uint64_t key,
                       std::span<const std::byte> body)>
        deliver;
    /// Optional sharpened emission bound for `shard` given its next-event
    /// time e. out[d] arrives holding the saturated static bound
    /// e + lookahead(shard, d), and the engine publishes no less than
    /// that whatever the transport writes, so a transport can only raise
    /// it. A raised entry must still lower-bound the head-arrival time of
    /// anything the shard can emit toward d, assuming no local event runs
    /// before e, and must be monotone in e and satisfy out[d] <= out[x] +
    /// lookahead(x, d) (automatic for `min over sources of (per-source
    /// base + closed per-pair latency)`). Runs on the shard's owning
    /// worker only.
    std::function<void(int shard, Ps e, Ps* out)> emission_bound;
    /// Lower bound on how long any shard takes to *react* to an inbound
    /// cross-shard message with a cross-shard emission of its own (for
    /// the Myrinet cluster: receive-side per-packet processing, plus a
    /// fresh injection's per-packet tx time when the link needs no
    /// same-timestamp ack release). Folded into relay and self-echo
    /// terms: a message in flight toward B caps horizons at head + gap +
    /// L[B][d] instead of head + L[B][d]. 0 means a relay may react
    /// instantly. A gap that overstates the true minimum reaction time
    /// breaks the soundness induction exactly like an inflated lookahead
    /// would.
    Ps reaction_gap = 0;
  };

  /// Ring slots per ordered shard pair, and bytes per slot with the
  /// engine's message framing included. A slot fits the Myrinet cluster's
  /// largest packet (1 KB MTU payload plus its cross-shard header) with
  /// room to spare; bigger messages, and posts to a full ring, take the
  /// overflow list, so the slot size is a fast-path size, not a limit.
  static constexpr std::size_t kMailboxSlots = 256;
  static constexpr std::size_t kMailboxSlotBytes = 1352;

  /// Per-pair lookahead matrix, row-major `n_shards * n_shards`;
  /// entry [src * n_shards + dst] (>= 1 ps) bounds the propagation
  /// src -> dst (diagonal ignored). The matrix is metric-closed internally
  /// (L[a][c] <= L[a][b] + L[b][c] afterwards) — a requirement of the
  /// soundness argument above, and never a loosening: a relay chain is a
  /// real propagation path, so the direct bound may not exceed it. An
  /// engine whose shards never exchange messages may pass `{}` as the
  /// transport.
  ParallelEngine(int n_shards, std::vector<Ps> lookahead,
                 Transport transport);
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;
  ~ParallelEngine();

  int n_shards() const noexcept { return static_cast<int>(shards_.size()); }
  /// Post-closure pairwise lookahead (src != dst).
  Ps lookahead(int src, int dst) const {
    return lookahead_[static_cast<std::size_t>(src) * shards_.size() + dst];
  }
  Engine& shard(int i) { return *shards_[i]; }
  const Engine& shard(int i) const { return *shards_[i]; }

  /// Emit a cross-shard message src -> dst whose head reaches dst at
  /// `head` (at least lookahead(src, dst) past src's clock), with the
  /// deterministic tie-break `key` its delivery is scheduled under.
  /// `fill(std::byte*)` writes exactly `bytes` body bytes. Call only from
  /// an event running on src's owning worker; the message reaches
  /// Transport::deliver on dst before any event at or past `head` runs
  /// there.
  template <typename Fill>
  void post(int src, int dst, Ps head, std::uint64_t key, std::size_t bytes,
            Fill fill) {
    post_bytes(src, dst, head, key, bytes, &fill,
               [](void* f, std::byte* out) { (*static_cast<Fill*>(f))(out); });
  }

  struct RunResult {
    std::uint64_t events = 0;  ///< events processed across all shards
    /// Advance quanta that executed at least one event, summed over
    /// shards. Divide by n_shards for a figure comparable to the old
    /// global window count ("every shard stepped once"). Depends on
    /// thread scheduling — a meter, never part of a determinism digest.
    std::uint64_t windows = 0;
    /// Slow-path entries: times a worker exhausted its spin/yield budget
    /// and parked on the condvar (the only remaining mutex crossings).
    /// Always 0 on one worker, which never parks.
    std::uint64_t barrier_crossings = 0;
    int pending_roots = 0;  ///< unfinished roots (deadlock if nonzero)
  };

  /// Run all shards to global quiescence on `n_threads` workers (clamped to
  /// [1, n_shards]). Shard s is owned by worker s % n_threads for the whole
  /// run. May be called again after it returns (e.g. a second traffic wave
  /// spawned on the shard engines). Worker threads persist across calls —
  /// respawned only when the thread count changes — so repeated runs do
  /// not touch the allocator.
  RunResult run(int n_threads);

 private:
  // One mailbox per ordered shard pair. A full ring or an oversized body
  // falls back to a mutex-guarded spill list; order between ring and
  // spill is irrelevant because deliveries sort by their keys, not by
  // drain order. Spill buffers cycle through a pre-warmed pool (and the
  // list vectors themselves keep their capacity across swaps), so the
  // overflow path stays allocation-free in steady state — a quantum
  // legitimately lets a producer run hundreds of emissions ahead of a
  // drain.
  struct Mailbox {
    Mailbox();
    SpscSlotRing ring;
    std::mutex mu;
    std::vector<std::vector<std::byte>> spill;  // guarded by mu
    std::vector<std::vector<std::byte>> pool;   // guarded by mu
    // Consumer-side scratch, touched only by the destination's owner.
    std::vector<std::vector<std::byte>> drained;
    std::atomic<std::uint32_t> spilled{0};
  };
  Mailbox& mailbox(int src, int dst) {
    return *mail_[static_cast<std::size_t>(src) * shards_.size() + dst];
  }

  void post_bytes(int src, int dst, Ps head, std::uint64_t key,
                  std::size_t bytes, void* fill,
                  void (*fill_fn)(void*, std::byte*));
  // Open (or extend) the src -> dst in-flight bucket for a message whose
  // head arrives at `head`, and shorten src's running quantum to the
  // message's echo bound.
  void note_emission(int src, int dst, Ps head);
  void deliver(int dst, const std::byte* msg);
  void drain(int dst);
  void worker_body(int w);
  bool advance(int s, int w, std::uint64_t& events, std::uint64_t& quanta);
  void publish(int s, int w, bool* changed);
  bool quiescent() const;
  void ensure_pool(int n_extra);
  void stop_pool();

  std::vector<Ps> lookahead_;  // metric-closed, row-major k*k
  std::vector<std::unique_ptr<Engine>> shards_;
  Transport transport_;
  std::vector<std::unique_ptr<Mailbox>> mail_;  // [src * k + dst], no diagonal

  // Published horizons: row s (written only by s's owner) holds pub[s][d]
  // for every destination d. Rows are padded to cache-line multiples so
  // owners never false-share.
  std::size_t pub_stride_ = 0;
  std::unique_ptr<std::atomic<Ps>[]> pub_;
  std::atomic<Ps>& pub(int src, int dst) noexcept {
    return pub_[static_cast<std::size_t>(src) * pub_stride_ + dst];
  }
  std::vector<std::vector<Ps>> scratch_;  // per-worker bound buffers

  // In-flight emission buckets, one per directed pair, written only by the
  // source shard's owner: messages pushed src -> dst that dst has not yet
  // covered with a post-drain publish. min_head caps the emitter's own
  // bound (self-echo) and feeds relay terms into its published row.
  struct PairOut {
    std::uint64_t pushed = 0;   // emissions ever, src -> dst
    std::uint64_t max_idx = 0;  // newest emission in the open bucket
    Ps min_head = 0;            // min head in the open bucket (when open)
    bool open = false;
  };
  std::vector<PairOut> out_;           // [src * k + dst]
  std::vector<std::uint64_t> staged_;  // [dst * k + src], dst-owned counts
  // covered_[dst * pub_stride_ + src]: total messages src -> dst whose
  // effects dst's published horizon accounts for. Stored by dst's owner
  // (release) strictly after its row stores; srcs acquire it to retire
  // buckets, so a retired bucket implies the covering row is visible.
  std::unique_ptr<std::atomic<std::uint64_t>[]> covered_;
  std::atomic<std::uint64_t>& covered(int dst, int src) noexcept {
    return covered_[static_cast<std::size_t>(dst) * pub_stride_ + src];
  }
  // Per-shard live quantum cap, written only by the owning worker;
  // Engine::run_below rereads it every event so post() can shorten the
  // quantum in progress.
  struct alignas(64) LiveCap {
    Ps v = 0;
  };
  std::vector<LiveCap> live_cap_;

  // Per-run shared state (reset by run(), used by worker_body).
  std::atomic<std::uint64_t> tot_events_{0};
  std::atomic<std::uint64_t> tot_quanta_{0};
  std::atomic<std::uint64_t> tot_parks_{0};
  std::atomic<bool> done_flag_{false};
  std::atomic<int> idle_approx_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  int idle_count_ = 0;  // guarded by idle_mu_
  int run_threads_ = 1;

  // Persistent worker pool: threads park between run() calls.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_work_;
  std::condition_variable pool_cv_done_;
  std::vector<std::thread> pool_;
  std::uint64_t pool_gen_ = 0;  // guarded by pool_mu_
  int pool_running_ = 0;        // guarded by pool_mu_
  bool pool_stop_ = false;      // guarded by pool_mu_
};

}  // namespace fmx::sim
