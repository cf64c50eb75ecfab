// An Active-Messages-style RPC service over FM 2.x: a key-value store
// served by node 0, queried by three clients. Shows the handler-as-
// logical-thread model doing real protocol work (request parsing, reply
// generation via deferred sends) — the "language runtime / user-level
// library" use case FM was designed for (§3.2).
//
// Build & run:  ./build/examples/rpc_kvstore
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/random.hpp"

using namespace fmx;
using fm2::Endpoint;
using fm2::HandlerTask;
using fm2::RecvStream;
using sim::Task;

namespace {

constexpr fm2::HandlerId kRequest = 10;
constexpr fm2::HandlerId kReply = 11;

enum class Op : std::uint32_t { kPut = 1, kGet = 2 };
struct RpcHeader {
  std::uint32_t op;
  std::uint32_t key;
  std::uint32_t value_len;
  std::uint32_t request_id;
};

struct Server {
  explicit Server(Endpoint& e) : ep(e) {
    ep.register_handler(kRequest, [this](RecvStream& s, int src) {
      return serve(s, src);
    });
  }

  HandlerTask serve(RecvStream& s, int src) {
    RpcHeader h;
    co_await s.receive(&h, sizeof(h));
    if (static_cast<Op>(h.op) == Op::kPut) {
      Bytes value(h.value_len);
      co_await s.receive(MutByteSpan{value});
      store[h.key] = std::move(value);
      ++puts;
      // Ack the put (deferred: handlers receive, the endpoint sends).
      RpcHeader ack{h.op, h.key, 0, h.request_id};
      ep.defer([this, src, ack]() -> Task<void> {
        co_await ep.send(src, kReply, as_bytes_of(ack));
      });
    } else {
      ++gets;
      auto it = store.find(h.key);
      RpcHeader rep{h.op, h.key,
                    it == store.end()
                        ? 0u
                        : static_cast<std::uint32_t>(it->second.size()),
                    h.request_id};
      Bytes value = it == store.end() ? Bytes{} : it->second;
      ep.defer([this, src, rep, value]() -> Task<void> {
        const ByteSpan pieces[] = {as_bytes_of(rep), ByteSpan{value}};
        co_await ep.send_gather(src, kReply, pieces);
      });
    }
  }

  Endpoint& ep;
  std::map<std::uint32_t, Bytes> store;
  int puts = 0, gets = 0;
};

struct Client {
  explicit Client(Endpoint& e) : ep(e) {
    ep.register_handler(kReply, [this](RecvStream& s, int src) {
      return on_reply(s, src);
    });
  }

  HandlerTask on_reply(RecvStream& s, int) {
    RpcHeader h;
    co_await s.receive(&h, sizeof(h));
    last_value.resize(h.value_len);
    if (h.value_len > 0) co_await s.receive(MutByteSpan{last_value});
    got_reply = h.request_id;
  }

  Task<void> put(std::uint32_t key, ByteSpan value) {
    RpcHeader h{static_cast<std::uint32_t>(Op::kPut), key,
                static_cast<std::uint32_t>(value.size()), ++next_id};
    const ByteSpan pieces[] = {as_bytes_of(h), value};
    co_await ep.send_gather(0, kRequest, pieces);
    co_await ep.poll_until([this] { return got_reply == next_id; });
  }

  Task<Bytes> get(std::uint32_t key) {
    RpcHeader h{static_cast<std::uint32_t>(Op::kGet), key, 0, ++next_id};
    co_await ep.send(0, kRequest, as_bytes_of(h));
    co_await ep.poll_until([this] { return got_reply == next_id; });
    co_return last_value;
  }

  Endpoint& ep;
  Bytes last_value;
  std::uint32_t next_id = 0, got_reply = 0;
};

bool g_all_ok = true;
int g_done = 0;

Task<void> client_program(Client& c, int me) {
  sim::Rng rng(77 + me);
  // Each client owns a key range; write then read back and verify.
  for (int i = 0; i < 25; ++i) {
    std::uint32_t key = me * 1000 + i;
    Bytes value = pattern_bytes(key, 100 + rng.uniform(0, 900));
    co_await c.put(key, ByteSpan{value});
    Bytes back = co_await c.get(key);
    if (back != value) {
      std::printf("[client %d] MISMATCH on key %u\n", me, key);
      g_all_ok = false;
    }
  }
  // Cross-read another client's key to show shared state.
  Bytes other = co_await c.get(((me % 3) + 1) * 1000);
  if (other.empty()) {
    // May legitimately be empty if that client hasn't written yet.
  }
  ++g_done;
  std::printf("[client %d] finished 25 put/get round trips at t=%.2f ms\n",
              me, sim::to_us(c.ep.host().engine().now()) / 1e3);
}

}  // namespace

int main() {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(4), 1);
  sim::Engine& engine = cluster.shard_engine(0);
  Endpoint server_ep(cluster.node(0), cluster.fabric_of(0));
  Server server(server_ep);
  std::vector<std::unique_ptr<Endpoint>> client_eps;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 1; i < 4; ++i) {
    client_eps.push_back(
        std::make_unique<Endpoint>(cluster.node(i), cluster.fabric_of(i)));
    clients.push_back(std::make_unique<Client>(*client_eps.back()));
  }
  for (int i = 0; i < 3; ++i) {
    engine.spawn(client_program(*clients[i], i + 1));
  }
  // Server loop: serve until all clients are done, then stop.
  engine.spawn([](Endpoint& ep) -> Task<void> {
    co_await ep.poll_until([] { return g_done == 3; });
  }(server_ep));
  engine.spawn([](sim::Engine& e, Endpoint& srv) -> Task<void> {
    while (g_done < 3) co_await e.delay(sim::ms(1));
    srv.kick();
  }(engine, server_ep));
  cluster.run();

  std::printf("\nserver handled %d puts, %d gets; store holds %zu keys\n",
              server.puts, server.gets, server.store.size());
  std::printf("all round trips verified: %s\n", g_all_ok ? "yes" : "NO");
  std::printf("simulated time: %.2f ms\n", sim::to_us(engine.now()) / 1e3);
  return g_all_ok && g_done == 3 ? 0 : 1;
}
