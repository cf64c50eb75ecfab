// google-benchmark microbenchmarks of the simulator machinery itself: how
// much real (wall-clock) time the framework costs per simulated event,
// message, and checksum. These guard against accidental slowdowns in the
// substrate every experiment runs on.
#include <benchmark/benchmark.h>

#include "common/buffer_pool.hpp"
#include "common/crc32.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

using namespace fmx;

namespace {

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule_at(sim::us(i), [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleRun);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> a(eng, 1), b(eng, 1);
    eng.spawn([](sim::Channel<int>& in, sim::Channel<int>& out)
                  -> sim::Task<void> {
      for (int i = 0; i < 500; ++i) {
        co_await out.push(i);
        (void)co_await in.pop();
      }
    }(a, b));
    eng.spawn([](sim::Channel<int>& in, sim::Channel<int>& out)
                  -> sim::Task<void> {
      for (int i = 0; i < 500; ++i) {
        int v = co_await in.pop();
        co_await out.push(v);
      }
    }(b, a));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutinePingPong);

// crc32() with the kernel start-up picked: carry-less multiply from 64 B
// on CPUs with PCLMULQDQ, slice-by-8 otherwise (and below 64 B).
void BM_Crc32(benchmark::State& state) {
  Bytes data = pattern_bytes(1, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(ByteSpan{data}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(256)->Arg(1024)->Arg(16384);

// The portable slice-by-8 kernel, the only one on CPUs without PCLMULQDQ.
void BM_Crc32Slice8(benchmark::State& state) {
  Bytes data = pattern_bytes(1, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detail::crc32_update_slice8(0xFFFFFFFFu, ByteSpan{data}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Slice8)->Arg(64)->Arg(256)->Arg(1024)->Arg(16384);

// The reference bytewise CRC, kept as the baseline the fast kernels in
// crc32.cpp are measured against (and as their correctness oracle).
void BM_Crc32Bytewise(benchmark::State& state) {
  Bytes data = pattern_bytes(1, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detail::crc32_update_bytewise(0xFFFFFFFFu, ByteSpan{data}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Bytewise)->Arg(64)->Arg(256)->Arg(1024)->Arg(16384);

// Acquire/release cycle against a warm pool: every acquire is a hit, no
// heap traffic. Compare with BM_BufferFresh below for the saved cost.
void BM_BufferPoolAcquire(benchmark::State& state) {
  const std::size_t n = state.range(0);
  BufferPool pool;
  pool.prewarm(n, 1);  // warm the size class
  for (auto _ : state) {
    BufferRef b = pool.acquire_ref(n);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolAcquire)->Arg(128)->Arg(4096);

// What each packet used to cost: a fresh heap vector, zero-filled, freed at
// end of scope.
void BM_BufferFresh(benchmark::State& state) {
  const std::size_t n = state.range(0);
  for (auto _ : state) {
    Bytes b(n);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferFresh)->Arg(128)->Arg(4096);

// Cost of spawning a root coroutine and driving it to completion — the
// per-message overhead of handler dispatch (frames come from the pool after
// the first iteration).
void BM_SpawnDrive(benchmark::State& state) {
  sim::Engine eng;
  for (auto _ : state) {
    int side_effect = 0;
    eng.spawn([](int& out) -> sim::Task<void> {
      out = 1;
      co_return;
    }(side_effect));
    eng.run();
    benchmark::DoNotOptimize(side_effect);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpawnDrive);

void BM_PatternBytes(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern_bytes(7, state.range(0)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PatternBytes)->Arg(1024)->Arg(65536);

// Real time per fully-simulated FM 2.x message (the cost of running one
// end-to-end experiment data point).
void BM_Fm2EndToEnd(benchmark::State& state) {
  const std::size_t msg = state.range(0);
  for (auto _ : state) {
    net::ParallelCluster cluster(net::ppro_fm2_cluster(2), 1);
    sim::Engine& eng = cluster.shard_engine(0);
    fm2::Endpoint tx(cluster.node(0), cluster.fabric_of(0));
    fm2::Endpoint rx(cluster.node(1), cluster.fabric_of(1));
    int got = 0;
    Bytes sink(msg);
    rx.register_handler(0, [&](fm2::RecvStream& s, int) -> fm2::HandlerTask {
      co_await s.receive(sink.data(), s.msg_bytes());
      ++got;
    });
    eng.spawn([](fm2::Endpoint& ep, std::size_t sz) -> sim::Task<void> {
      Bytes m(sz);
      for (int i = 0; i < 10; ++i) co_await ep.send(1, 0, ByteSpan{m});
    }(tx, msg));
    eng.spawn([](fm2::Endpoint& ep, int& g) -> sim::Task<void> {
      co_await ep.poll_until([&] { return g == 10; });
    }(rx, got));
    cluster.run();
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_Fm2EndToEnd)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
