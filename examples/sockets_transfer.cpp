// Socket-FM example: a bulk file-transfer-style client/server stream over
// FM 2.x sockets, demonstrating
//   * connection setup (listen / connect / accept),
//   * streaming without message boundaries,
//   * the zero-copy receive path (posted recv buffers are filled directly
//     from the FM stream), and
//   * sender pacing through receiver flow control.
//
// Build & run:  ./build/examples/sockets_transfer
#include <cstdio>
#include <vector>

#include "myrinet/parallel_cluster.hpp"
#include "sockets/socket_fm.hpp"

using namespace fmx;
using sock::Socket;
using sock::SocketFm;
using sim::Task;

namespace {

constexpr int kPort = 21;
constexpr std::size_t kFileBytes = 1 << 20;  // 1 MB "file"
constexpr std::size_t kChunk = 16 * 1024;

bool g_ok = false;

Task<void> server(SocketFm& stack) {
  stack.listen(kPort);
  Socket* conn = co_await stack.accept(kPort);
  std::printf("[server] accepted connection from node %d\n",
              conn->peer_node());

  // Simple framing: 8-byte length, then the payload stream.
  std::uint64_t len = 0;
  co_await conn->recv_exact(as_writable_bytes_of(len));
  std::printf("[server] incoming transfer of %llu bytes\n",
              static_cast<unsigned long long>(len));

  Bytes file(len);
  sim::Ps t0 = stack.fm().host().engine().now();
  std::size_t off = 0;
  while (off < len) {
    // Receive in chunks, like read(2) into a fixed buffer.
    std::size_t n = co_await conn->recv(
        MutByteSpan{file}.subspan(off, std::min(kChunk, len - off)));
    if (n == 0) break;
    off += n;
  }
  sim::Ps t1 = stack.fm().host().engine().now();

  bool intact = off == len && pattern_mismatch(7, 0, ByteSpan{file}) == -1;
  double secs = sim::to_seconds(t1 - t0);
  std::printf("[server] received %zu bytes in %.2f ms  ->  %s\n", off,
              secs * 1e3, format_mbps(off / secs).c_str());
  std::printf("[server] data intact: %s\n", intact ? "yes" : "NO");
  std::printf("[server] zero-copy bytes: %llu, buffered bytes: %llu\n",
              static_cast<unsigned long long>(stack.stats().zero_copy_bytes),
              static_cast<unsigned long long>(stack.stats().buffered_bytes));
  g_ok = intact;
}

Task<void> client(SocketFm& stack) {
  Socket* conn = co_await stack.connect(1, kPort);
  std::puts("[client] connected");

  Bytes file = pattern_bytes(7, kFileBytes);
  std::uint64_t len = file.size();
  co_await conn->send(as_bytes_of(len));
  // Stream the file in application-sized writes; Socket-FM fragments and
  // paces them through FM credits.
  for (std::size_t off = 0; off < file.size(); off += kChunk) {
    co_await conn->send(
        ByteSpan{file}.subspan(off, std::min(kChunk, file.size() - off)));
  }
  co_await conn->close();
  std::printf("[client] sent %zu bytes and closed at t=%.2f ms\n",
              file.size(), sim::to_us(stack.fm().host().engine().now()) / 1e3);
}

}  // namespace

int main() {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
  sim::Engine& engine = cluster.shard_engine(0);
  fm2::Endpoint client_ep(cluster.node(0), cluster.fabric_of(0));
  fm2::Endpoint server_ep(cluster.node(1), cluster.fabric_of(1));
  SocketFm client_stack(client_ep);
  SocketFm server_stack(server_ep);

  engine.spawn(server(server_stack));
  engine.spawn(client(client_stack));
  cluster.run();

  std::printf("simulated time: %.2f ms\n", sim::to_us(engine.now()) / 1e3);
  return g_ok && engine.pending_roots() == 0 ? 0 : 1;
}
