#include "sim/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <limits>

namespace fmx::sim {
namespace {

constexpr Ps kNever = std::numeric_limits<Ps>::max();

constexpr Ps sat_add(Ps a, Ps b) noexcept {
  return a > kNever - b ? kNever : a + b;
}

// Mailbox message framing: this header, then the body.
struct MailHeader {
  Ps head;
  std::uint64_t key;
  std::uint64_t bytes;
};

// Full fast passes over the owned shards before backing off. A pass is
// already substantial work (k-1 horizon loads + ring probes per shard), so
// the pure-spin budget is small; yields keep oversubscribed runs (more
// workers than cores: CI, TSan) moving.
constexpr int kSpinPasses = 4;
constexpr int kYieldPasses = 64;
constexpr auto kParkTimeout = std::chrono::microseconds(100);

}  // namespace

ParallelEngine::Mailbox::Mailbox() : ring(kMailboxSlots, kMailboxSlotBytes) {
  // Half the ring depth again in spill buffers: a consumer preempted on a
  // loaded box can leave the ring full plus this many slots spilled
  // before the overflow path has to touch the allocator.
  pool.reserve(4 * kMailboxSlots);
  spill.reserve(4 * kMailboxSlots);
  drained.reserve(4 * kMailboxSlots);
  for (std::size_t i = 0; i < kMailboxSlots / 2; ++i) {
    pool.emplace_back(kMailboxSlotBytes);
  }
}

ParallelEngine::ParallelEngine(int n_shards, std::vector<Ps> lookahead,
                               Transport transport)
    : lookahead_(std::move(lookahead)), transport_(std::move(transport)) {
  assert(n_shards >= 1);
  assert(lookahead_.size() ==
         static_cast<std::size_t>(n_shards) * n_shards);
  const std::size_t k = static_cast<std::size_t>(n_shards);
  for (std::size_t s = 0; s < k; ++s) lookahead_[s * k + s] = 0;
  // Metric closure (Floyd–Warshall): a relay chain src -> x -> dst is a
  // real propagation path, so the direct bound may never exceed it. The
  // soundness induction in the header leans on exactly this property.
  for (std::size_t x = 0; x < k; ++x) {
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = 0; b < k; ++b) {
        const Ps via = sat_add(lookahead_[a * k + x], lookahead_[x * k + b]);
        if (via < lookahead_[a * k + b]) lookahead_[a * k + b] = via;
      }
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      assert((a == b || lookahead_[a * k + b] >= 1) &&
             "zero lookahead cannot make progress");
    }
  }

  shards_.reserve(k);
  mail_.resize(k * k);
  for (std::size_t s = 0; s < k; ++s) {
    shards_.push_back(std::make_unique<Engine>());
    for (std::size_t d = 0; d < k; ++d) {
      if (d != s) mail_[s * k + d] = std::make_unique<Mailbox>();
    }
  }

  // One cache line holds 8 Ps atomics; pad rows so each shard's row (its
  // only cross-thread write target) never shares a line with another's.
  pub_stride_ = (k + 7) & ~std::size_t{7};
  pub_ = std::make_unique<std::atomic<Ps>[]>(k * pub_stride_);
  covered_ = std::make_unique<std::atomic<std::uint64_t>[]>(k * pub_stride_);
  for (std::size_t i = 0; i < k * pub_stride_; ++i) {
    pub_[i].store(0, std::memory_order_relaxed);
    covered_[i].store(0, std::memory_order_relaxed);
  }
  scratch_.assign(k, std::vector<Ps>(k, 0));
  out_.assign(k * k, PairOut{});
  staged_.assign(k * k, 0);
  live_cap_.resize(k);
}

ParallelEngine::~ParallelEngine() { stop_pool(); }

// Commit before note_emission: the bucket must never cover a message the
// destination cannot yet see.
void ParallelEngine::post_bytes(int src, int dst, Ps head, std::uint64_t key,
                                std::size_t bytes, void* fill,
                                void (*fill_fn)(void*, std::byte*)) {
  assert(transport_.deliver && "post() needs a Transport");
  Mailbox& mb = mailbox(src, dst);
  const MailHeader h{head, key, bytes};
  const std::size_t need = sizeof(h) + bytes;
  std::byte* slot =
      need <= mb.ring.slot_bytes() ? mb.ring.try_push_slot() : nullptr;
  if (slot != nullptr) {
    std::memcpy(slot, &h, sizeof(h));
    fill_fn(fill, slot + sizeof(h));
    mb.ring.commit_push();
  } else {
    std::vector<std::byte> buf;
    {
      std::lock_guard<std::mutex> lock(mb.mu);
      if (!mb.pool.empty()) {
        buf = std::move(mb.pool.back());
        mb.pool.pop_back();
      }
    }
    if (buf.size() < need) buf.resize(need);
    std::memcpy(buf.data(), &h, sizeof(h));
    fill_fn(fill, buf.data() + sizeof(h));
    std::lock_guard<std::mutex> lock(mb.mu);
    mb.spill.push_back(std::move(buf));
    mb.spilled.store(static_cast<std::uint32_t>(mb.spill.size()),
                     std::memory_order_release);
  }
  note_emission(src, dst, head);
}

void ParallelEngine::note_emission(int src, int dst, Ps head) {
  PairOut& o = out_[static_cast<std::size_t>(src) * n_shards() + dst];
  ++o.pushed;
  if (!o.open) {
    o.open = true;
    o.min_head = head;
  } else if (head < o.min_head) {
    o.min_head = head;
  }
  o.max_idx = o.pushed;
  // Shorten the quantum in progress: the destination may drain this
  // message and reply, and the reply must not land below our clock. The
  // reply is itself a reaction, so the reaction gap applies.
  const Ps echo =
      sat_add(sat_add(head, transport_.reaction_gap), lookahead(dst, src));
  if (echo < live_cap_[src].v) live_cap_[src].v = echo;
}

void ParallelEngine::deliver(int dst, const std::byte* msg) {
  MailHeader h;
  std::memcpy(&h, msg, sizeof(h));
  transport_.deliver(dst, h.head, h.key,
                     std::span<const std::byte>(msg + sizeof(h), h.bytes));
}

// Hand every message posted to `dst` to the transport and stage the drained
// counts; advance() republishes them once dst's horizon covers them.
void ParallelEngine::drain(int dst) {
  const int k = n_shards();
  for (int src = 0; src < k; ++src) {
    if (src == dst) continue;
    Mailbox& mb = mailbox(src, dst);
    std::uint64_t n = 0;
    while (const std::byte* slot = mb.ring.front()) {
      deliver(dst, slot);
      mb.ring.pop();
      ++n;
    }
    if (mb.spilled.load(std::memory_order_acquire) != 0) {
      {
        std::lock_guard<std::mutex> lock(mb.mu);
        mb.drained.swap(mb.spill);
        mb.spilled.store(0, std::memory_order_release);
      }
      for (const auto& buf : mb.drained) deliver(dst, buf.data());
      n += mb.drained.size();
      {
        std::lock_guard<std::mutex> lock(mb.mu);
        for (auto& buf : mb.drained) mb.pool.push_back(std::move(buf));
      }
      mb.drained.clear();
    }
    staged_[static_cast<std::size_t>(dst) * k + src] += n;
  }
}

// Recompute and publish shard s's horizon row from its post-quantum state.
// Stores are skipped when the value is unchanged (the common idle case);
// a *lower* value than before is stored too — a drain may have scheduled
// an arrival below the previous next-event time, and the promise must
// track it (the soundness induction covers readers holding the older,
// higher value through the emitting peer's own promise).
void ParallelEngine::publish(int s, int w, bool* changed) {
  const int k = n_shards();
  Ps* out = scratch_[w].data();
  const Ps e = shards_[s]->next_event_time();
  const Ps* row = &lookahead_[static_cast<std::size_t>(s) * k];
  for (int d = 0; d < k; ++d) out[d] = sat_add(e, row[d]);
  if (transport_.emission_bound) {
    transport_.emission_bound(s, e, out);
    for (int d = 0; d < k; ++d) out[d] = std::max(out[d], sat_add(e, row[d]));
  }
  // Fold open in-flight buckets as relay terms: a message already emitted
  // to B can wake an otherwise-idle B into emitting toward d no earlier
  // than the message's head + the reaction gap + L[B][d] (any causal chain
  // through further shards only adds more gap, and the closed L already
  // bounds the pure propagation). The direct destination B itself is
  // excluded — the drain-before-run / commit-before-republish protocol
  // already covers direct arrivals, and the zero diagonal term would pin
  // B's bound at its own arrival time and wedge it.
  const PairOut* buckets = &out_[static_cast<std::size_t>(s) * k];
  for (int b = 0; b < k; ++b) {
    if (b == s || !buckets[b].open) continue;
    const Ps* row_b = &lookahead_[static_cast<std::size_t>(b) * k];
    const Ps rh = sat_add(buckets[b].min_head, transport_.reaction_gap);
    for (int d = 0; d < k; ++d) {
      if (d == s || d == b) continue;
      const Ps v = sat_add(rh, row_b[d]);
      if (v < out[d]) out[d] = v;
    }
  }
  for (int d = 0; d < k; ++d) {
    if (d == s) continue;
    std::atomic<Ps>& cell = pub(s, d);
    if (cell.load(std::memory_order_relaxed) != out[d]) {
      cell.store(out[d], std::memory_order_release);
      *changed = true;
    }
  }
}

// One advance quantum for shard s. The order is load-bearing: peers'
// horizons are loaded (acquire) *before* the drain, and post() commits
// mailbox slots *before* the producer republishes (release), so any
// message invisible to this drain was emitted by an event at or after the
// next-event time its producer's visible promise was derived from — i.e.
// its head is >= the bound we run to.
bool ParallelEngine::advance(int s, int w, std::uint64_t& events,
                             std::uint64_t& quanta) {
  const int k = n_shards();
  // (1) Retire in-flight buckets whose destination has published a
  // covering horizon since their newest message. The acquire pairs with
  // the destination's post-publish release store of the covered counter,
  // so the horizon rows read below reflect at least that covering publish.
  PairOut* buckets = &out_[static_cast<std::size_t>(s) * k];
  for (int b = 0; b < k; ++b) {
    if (b == s || !buckets[b].open) continue;
    if (covered(b, s).load(std::memory_order_acquire) >= buckets[b].max_idx) {
      buckets[b].open = false;
    }
  }
  // (2) Conservative bound: the min over every peer's promise, read
  // *twice*. Two passes close the retirement race: if peer X dropped the
  // relay term covering an in-flight message X -> Y before our first read
  // of X's row, then Y's covering row store happened-before X's republish
  // and hence before our first pass — so our second pass over Y's row
  // observes it. One of the two values read is always a cover. With one
  // worker there is no concurrent retirement to race with and a single
  // pass suffices.
  Ps bound = kNever;
  const int read_passes = run_threads_ == 1 ? 1 : 2;
  for (int pass = 0; pass < read_passes; ++pass) {
    for (int a = 0; a < k; ++a) {
      if (a == s) continue;
      const Ps p = pub(a, s).load(std::memory_order_acquire);
      if (p < bound) bound = p;
    }
  }
  // ...capped by our own self-echo terms: a peer we already messaged can
  // wake and reply, and no published row promises us anything about
  // ourselves.
  for (int b = 0; b < k; ++b) {
    if (b != s && buckets[b].open) {
      const Ps echo =
          sat_add(sat_add(buckets[b].min_head, transport_.reaction_gap),
                  lookahead(b, s));
      if (echo < bound) bound = echo;
    }
  }
  drain(s);

  Engine& eng = *shards_[s];
  std::uint64_t n = 0;
  if (eng.next_event_time() < bound) {
    // The live cap drops mid-quantum when this shard emits (post()):
    // events past an emission's echo bound must wait for the next quantum,
    // after the destination has had a chance to react.
    live_cap_[s].v = bound;
    n = eng.run_below(&live_cap_[s].v);
    events += n;
    if (n > 0) ++quanta;
  }

  bool changed = false;
  publish(s, w, &changed);
  // (3) Republish drained counts strictly after the covering row stores,
  // retiring the emitters' buckets. Counts as a change: a parked emitter
  // may be blocked on exactly this retirement.
  const std::uint64_t* st = &staged_[static_cast<std::size_t>(s) * k];
  for (int a = 0; a < k; ++a) {
    if (a == s) continue;
    std::atomic<std::uint64_t>& c = covered(s, a);
    if (c.load(std::memory_order_relaxed) != st[a]) {
      c.store(st[a], std::memory_order_release);
      changed = true;
    }
  }
  if (changed && idle_approx_.load(std::memory_order_relaxed) > 0) {
    idle_cv_.notify_all();
  }
  return n > 0;
}

// All-idle exclusive sweep: callable by a lone worker, or only with
// idle_count_ == run_threads_ under idle_mu_ — every other worker has
// released the mutex inside wait_for and touches no engine until it
// reacquires it, so plain reads of foreign engine state are race-free (and
// TSan-visibly so, through the mutex).
bool ParallelEngine::quiescent() const {
  for (const auto& e : shards_) {
    if (!e->idle()) return false;
  }
  for (const auto& mb : mail_) {
    if (mb && (!mb->ring.empty() ||
               mb->spilled.load(std::memory_order_acquire) != 0)) {
      return false;
    }
  }
  return true;
}

void ParallelEngine::worker_body(int w) {
  const int k = n_shards();
  const int n_threads = run_threads_;
  std::uint64_t events = 0;
  std::uint64_t quanta = 0;
  std::uint64_t parks = 0;
  int passes = 0;
  while (!done_flag_.load(std::memory_order_acquire)) {
    bool progress = false;
    for (int s = w; s < k; s += n_threads) {
      progress |= advance(s, w, events, quanta);
    }
    if (progress) {
      passes = 0;
      continue;
    }
    // A lone worker has nobody to wait for: a pass without progress either
    // proves quiescence or leaves work the next pass runs.
    if (n_threads == 1) {
      if (quiescent()) break;
      continue;
    }
    ++passes;
    if (passes <= kSpinPasses) continue;
    if (passes <= kYieldPasses) {
      std::this_thread::yield();
      continue;
    }
    passes = 0;
    ++parks;
    std::unique_lock<std::mutex> lk(idle_mu_);
    if (done_flag_.load(std::memory_order_acquire)) break;
    idle_approx_.fetch_add(1, std::memory_order_relaxed);
    ++idle_count_;
    if (idle_count_ == n_threads) {
      if (quiescent()) {
        done_flag_.store(true, std::memory_order_release);
      }
      // Either way wake everyone: on done to exit, otherwise to retry —
      // a failed sweep means some shard can progress (the global-minimum
      // event is always below its owner's bound) or a mailbox still holds
      // messages for someone's next drain.
      idle_cv_.notify_all();
    } else {
      idle_cv_.wait_for(lk, kParkTimeout);
    }
    --idle_count_;
    idle_approx_.fetch_sub(1, std::memory_order_relaxed);
  }
  tot_events_.fetch_add(events, std::memory_order_relaxed);
  tot_quanta_.fetch_add(quanta, std::memory_order_relaxed);
  tot_parks_.fetch_add(parks, std::memory_order_relaxed);
}

void ParallelEngine::ensure_pool(int n_extra) {
  if (static_cast<int>(pool_.size()) == n_extra) return;
  stop_pool();
  pool_stop_ = false;
  pool_.reserve(static_cast<std::size_t>(n_extra));
  const std::uint64_t seen0 = pool_gen_;
  for (int i = 0; i < n_extra; ++i) {
    pool_.emplace_back([this, w = i + 1, seen0] {
      std::uint64_t seen = seen0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lk(pool_mu_);
          pool_cv_work_.wait(
              lk, [&] { return pool_stop_ || pool_gen_ != seen; });
          if (pool_stop_) return;
          seen = pool_gen_;
        }
        worker_body(w);
        {
          std::lock_guard<std::mutex> lk(pool_mu_);
          if (--pool_running_ == 0) pool_cv_done_.notify_all();
        }
      }
    });
  }
}

void ParallelEngine::stop_pool() {
  if (pool_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_work_.notify_all();
  for (auto& t : pool_) t.join();
  pool_.clear();
}

ParallelEngine::RunResult ParallelEngine::run(int n_threads) {
  const int k = n_shards();
  if (n_threads < 1) n_threads = 1;
  if (n_threads > k) n_threads = k;
  run_threads_ = n_threads;
  tot_events_.store(0, std::memory_order_relaxed);
  tot_quanta_.store(0, std::memory_order_relaxed);
  tot_parks_.store(0, std::memory_order_relaxed);
  done_flag_.store(false, std::memory_order_relaxed);
  idle_approx_.store(0, std::memory_order_relaxed);
  idle_count_ = 0;

  // Serial prologue: fold anything already in the mailboxes into engine
  // events (they are empty after a completed run, but setup code may post
  // between runs), flush the drained counts and retire every coverable
  // in-flight bucket (safe before the publishes below: nothing runs an
  // event until the workers start, which orders the whole prologue), then
  // publish every shard's initial horizon so no worker ever reads the
  // zero-initialized matrix.
  for (int s = 0; s < k; ++s) drain(s);
  for (int d = 0; d < k; ++d) {
    for (int a = 0; a < k; ++a) {
      if (a == d) continue;
      const std::uint64_t st = staged_[static_cast<std::size_t>(d) * k + a];
      covered(d, a).store(st, std::memory_order_relaxed);
      PairOut& o = out_[static_cast<std::size_t>(a) * k + d];
      if (o.open && st >= o.max_idx) o.open = false;
    }
  }
  bool changed = false;
  for (int s = 0; s < k; ++s) publish(s, 0, &changed);

  if (!quiescent()) {
    if (n_threads == 1) {
      worker_body(0);
    } else {
      ensure_pool(n_threads - 1);
      {
        std::lock_guard<std::mutex> lk(pool_mu_);
        pool_running_ = n_threads - 1;
        ++pool_gen_;
      }
      pool_cv_work_.notify_all();
      worker_body(0);
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_done_.wait(lk, [&] { return pool_running_ == 0; });
    }
  }

  RunResult r;
  r.events = tot_events_.load(std::memory_order_relaxed);
  r.windows = tot_quanta_.load(std::memory_order_relaxed);
  r.barrier_crossings = tot_parks_.load(std::memory_order_relaxed);
  for (const auto& e : shards_) r.pending_roots += e->pending_roots();
  return r;
}

}  // namespace fmx::sim
