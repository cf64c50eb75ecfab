// §4.1's concurrency claim, measured: "the interleaving means that one
// long message from one sender does not block other senders."
//
// Node 2 receives a bulk stream of large messages from node 0 while node 1
// sends it small request messages. We measure the small messages' delivery
// latency with handler interleaving on (FM 2.x) vs whole-message delivery
// (the FM 1.x discipline): without interleaving every bulk message parks
// the extractor until its last packet arrives, and the small messages wait
// behind it.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "myrinet/parallel_cluster.hpp"

using namespace fmx;
using sim::Engine;
using sim::Task;

namespace {

struct Result {
  double mean_us = 0;
  double max_us = 0;
};

Result small_msg_latency(bool whole_message, std::size_t bulk_size) {
  auto params = net::ppro_fm2_cluster(3);
  // Credits must cover the largest bulk message, or the whole-message
  // configuration deadlocks (see ablation_features) and the comparison
  // silently measures an idle receiver.
  params.nic.host_ring_slots = 512;
  net::ParallelCluster cluster(params, 1);
  Engine& eng = cluster.shard_engine(0);
  fm2::Config cfg;
  cfg.credits_per_peer = 192;
  cfg.whole_message_handlers = whole_message;
  fm2::Endpoint bulk_tx(cluster.node(0), cluster.fabric_of(0), cfg);
  fm2::Endpoint small_tx(cluster.node(1), cluster.fabric_of(1), cfg);
  fm2::Endpoint rx(cluster.node(2), cluster.fabric_of(2), cfg);

  constexpr int kSmall = 40;
  int bulk_done = 0;
  std::vector<sim::Ps> small_sent(kSmall), small_got(kSmall);
  Bytes sink(bulk_size);
  rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    co_await s.receive(sink.data(), s.msg_bytes());
    ++bulk_done;
  });
  rx.register_handler(1, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
    std::uint32_t id;
    co_await s.receive(&id, 4);
    small_got[id] = rx.host().engine().now();
  });

  constexpr int kBulkMsgs = 6;
  eng.spawn([](fm2::Endpoint& ep, std::size_t sz) -> Task<void> {
    Bytes m(sz);
    for (int i = 0; i < kBulkMsgs; ++i) co_await ep.send(2, 0, ByteSpan{m});
  }(bulk_tx, bulk_size));
  eng.spawn([](Engine& e, fm2::Endpoint& ep,
               std::vector<sim::Ps>& sent) -> Task<void> {
    for (std::uint32_t i = 0; i < kSmall; ++i) {
      co_await e.delay(sim::us(50));  // spread over the bulk transfer
      sent[i] = e.now();
      co_await ep.send(2, 1, as_bytes_of(i));
    }
  }(eng, small_tx, small_sent));
  eng.spawn([](fm2::Endpoint& ep, int& bd,
               std::vector<sim::Ps>& got) -> Task<void> {
    co_await ep.poll_until([&] {
      if (bd < kBulkMsgs) return false;
      for (auto t : got) {
        if (t == 0) return false;
      }
      return true;
    });
  }(rx, bulk_done, small_got));
  cluster.run();
  if (bulk_done != kBulkMsgs) {
    std::fprintf(stderr, "BUG: bulk transfer did not complete (%d/%d)\n",
                 bulk_done, kBulkMsgs);
    std::exit(1);
  }

  Result r;
  for (int i = 0; i < kSmall; ++i) {
    double us = sim::to_us(small_got[i] - small_sent[i]);
    r.mean_us += us / kSmall;
    r.max_us = std::max(r.max_us, us);
  }
  return r;
}

}  // namespace

int main() {
  std::puts("=== Head-of-line blocking: small-message latency under a "
            "competing bulk stream ===\n");
  std::printf("%12s %22s %22s\n", "bulk msg", "interleaved (mean/max us)",
              "whole-msg (mean/max us)");
  for (std::size_t bulk : {16UL * 1024, 64UL * 1024, 120UL * 1024}) {
    auto inter = small_msg_latency(false, bulk);
    auto whole = small_msg_latency(true, bulk);
    std::printf("%10zuKB %12.1f /%8.1f %13.1f /%8.1f\n", bulk / 1024,
                inter.mean_us, inter.max_us, whole.mean_us, whole.max_us);
  }
  std::puts("\nwith handler multithreading a small message completes as "
            "soon as its packet\nis extracted, even mid-bulk-message; "
            "whole-message delivery makes it wait for\nwhatever bulk data "
            "is ahead of it — and the wait grows with bulk size, the\n"
            "head-of-line blocking §4.1 says the stream interface removes.");
  return 0;
}
