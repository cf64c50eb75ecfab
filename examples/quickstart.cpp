// Quickstart: the FM 2.x API end to end on a simulated two-node Myrinet
// cluster — exactly the Table 2 primitives from the paper.
//
//   node 0:  FM_begin_message / FM_send_piece / FM_end_message
//   node 1:  a handler coroutine doing FM_receive (header, then payload),
//            driven by FM_extract
//
// Build & run:  ./build/examples/quickstart
//
// Set FMX_TRACE=/path/to/out.json to record a cross-layer trace of the run
// (Chrome tracing format — load it at chrome://tracing or ui.perfetto.dev).
#include <cstdio>
#include <cstring>

#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "trace/export.hpp"

using namespace fmx;
using fm2::Endpoint;
using fm2::HandlerTask;
using fm2::RecvStream;
using fm2::SendStream;
using sim::Task;

namespace {

// The application-level header our messages carry (the paper's §4.1
// example uses the same shape: a header that tells the handler where the
// payload belongs).
struct AppHeader {
  std::uint32_t length;
  std::uint32_t kind;
};

constexpr fm2::HandlerId kHello = 7;

Task<void> sender(Endpoint& ep) {
  std::puts("[node 0] composing a gathered message (header + payload)");
  Bytes payload = pattern_bytes(/*seed=*/42, 4000);
  AppHeader hdr{static_cast<std::uint32_t>(payload.size()), 1};

  // Table 2: FM_begin_message(dest, size, handler)
  SendStream stream =
      co_await FM_begin_message(ep, /*dest=*/1,
                                sizeof(hdr) + payload.size(), kHello);
  // Table 2: FM_send_piece — gather: two pieces, one message, no staging.
  co_await FM_send_piece(ep, stream, as_bytes_of(hdr));
  co_await FM_send_piece(ep, stream, ByteSpan{payload});
  // Table 2: FM_end_message
  co_await FM_end_message(ep, stream);
  std::printf("[node 0] message sent (%zu bytes at t=%.2f us)\n",
              sizeof(hdr) + payload.size(),
              sim::to_us(ep.host().engine().now()));
}

bool g_done = false;

// A handler is one logical thread per message: it starts as soon as the
// first packet arrives and suspends inside FM_receive until more data is
// extracted.
HandlerTask hello_handler(RecvStream& stream, int src) {
  AppHeader hdr;
  co_await stream.receive(&hdr, sizeof(hdr));
  std::printf("[node 1] header from node %d: kind=%u length=%u "
              "(message %zu bytes total, %zu already here)\n",
              src, hdr.kind, hdr.length, stream.msg_bytes(),
              stream.available());

  Bytes payload(hdr.length);
  co_await stream.receive(MutByteSpan{payload});
  bool ok = pattern_mismatch(42, 0, ByteSpan{payload}) == -1;
  std::printf("[node 1] payload received intact: %s\n", ok ? "yes" : "NO");
  g_done = true;
}

Task<void> receiver(Endpoint& ep) {
  // Table 2: FM_extract(bytes). Poll with a 2 KB budget per call to show
  // receiver flow control pacing the presentation of data.
  int extracts = 0;
  while (!g_done) {
    (void)co_await FM_extract(ep, 2048);
    ++extracts;
    co_await ep.host().compute(sim::us(1));  // pretend to do real work
  }
  std::printf("[node 1] done after %d paced FM_extract(2048) calls at "
              "t=%.2f us\n",
              extracts, sim::to_us(ep.host().engine().now()));
}

}  // namespace

int main() {
  // The calibrated FM 2.x platform: 200 MHz Pentium Pro + PCI + Myrinet,
  // simulated on one shard (one engine, one fabric).
  net::ParallelCluster cluster(net::ppro_fm2_cluster(/*n_hosts=*/2), 1);
  net::Fabric& fabric = cluster.fabric_of(0);
  Endpoint node0(cluster.node(0), fabric);
  Endpoint node1(cluster.node(1), fabric);
  node1.register_handler(kHello, hello_handler);

  const char* trace_path = trace::env_trace_path();
  if (trace_path) fabric.tracer().enable();

  cluster.spawn_on(0, sender(node0));
  cluster.spawn_on(1, receiver(node1));
  cluster.run();

  std::printf("simulated time: %.2f us, wire packets: %llu\n",
              sim::to_us(cluster.shard_engine(0).now()),
              static_cast<unsigned long long>(fabric.stats().packets));
  if (trace_path) {
    if (trace::write_chrome_trace(fabric.tracer(), trace_path)) {
      std::printf("trace written to %s (%zu events)\n", trace_path,
                  fabric.tracer().size());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path);
      return 1;
    }
  }
  return g_done ? 0 : 1;
}
