// Coroutine frames are the simulator's per-packet host cost: each pooled
// frame is an allocation, a free and two symmetric transfers. These counts
// depend only on the code paths a simulation takes, never on the machine,
// so they are gated exactly, like digests.
//
// (a) The leaf waits — Host::sync, IoBus::dma/pio, SerialResource::occupy
//     — return the engine's delay awaiter instead of wrapping one
//     co_await in a coroutine, and Nic::enqueue hands back the queue's push
//     task, so awaiting them allocates no frame of their own.
// (b) A warmed fat-tree wave of fmbench's short geometry (128 hosts, 8
//     uniform bounded-Pareto flows per host, seed 1) pins its frame count
//     next to its event count and digest. A change that adds or removes a
//     coroutine on the packet path moves the frame count; re-pin it in the
//     same commit, with the reason, only if the change is deliberate.
#include <gtest/gtest.h>

#include <cstdint>

#include "myrinet/node.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "myrinet/topo.hpp"
#include "sim/frame_pool.hpp"
#include "sim/resource.hpp"
#include "tests/common/sim_fixture.hpp"
#include "workload/traffic_engine.hpp"

namespace fmx {
namespace {

using sim::Task;

std::uint64_t frames() { return sim::frame_pool_stats().allocs; }

struct LeafFrames {
  std::uint64_t sync = 0, dma = 0, pio = 0, occupy = 0, enqueue = 0;
};

// Awaits each leaf once and records the frames that await allocated and
// the simulated time it took.
Task<void> await_leaves(sim::Engine& eng, net::Host& host, net::IoBus& bus,
                        sim::SerialResource& res, net::Nic& nic,
                        LeafFrames& out) {
  host.charge(sim::Cost::kOther, sim::ns(700));
  sim::Ps t0 = eng.now();
  std::uint64_t f0 = frames();
  co_await host.sync();
  out.sync = frames() - f0;
  EXPECT_EQ(eng.now() - t0, sim::ns(700));

  t0 = eng.now();
  f0 = frames();
  co_await bus.dma(256);
  out.dma = frames() - f0;
  EXPECT_EQ(eng.now() - t0, bus.dma_time(256));

  t0 = eng.now();
  f0 = frames();
  co_await bus.pio(64);
  out.pio = frames() - f0;
  EXPECT_EQ(eng.now() - t0, bus.pio_time(64));

  t0 = eng.now();
  f0 = frames();
  co_await res.occupy(sim::ns(50));
  out.occupy = frames() - f0;
  EXPECT_EQ(eng.now() - t0, sim::ns(50));

  f0 = frames();
  co_await nic.enqueue(net::SendDescriptor(1, BufferRef{}, false));
  out.enqueue = frames() - f0;
}

TEST(FrameCount, LeafWaitsAllocateNoFrame) {
  const net::ClusterParams p = net::ppro_fm2_cluster(2);
  sim::ParallelEngine par(1, {0}, {});
  sim::Engine& eng = par.shard(0);
  const std::int32_t shard_of[2] = {0, 0};
  net::Fabric fabric(par, 0, shard_of, p.fabric, p.n_hosts, 0);
  net::Host host(eng, 0, p.host);
  net::IoBus bus(eng, p.bus);
  sim::SerialResource res(eng);
  // Control programs not started: the descriptor queue only fills, so
  // the enqueue below never blocks.
  net::Nic nic(eng, 0, p.nic, bus, fabric);
  LeafFrames got;
  eng.spawn(await_leaves(eng, host, bus, res, nic, got));
  ASSERT_TRUE(test::run_to_exhaustion(eng));
  EXPECT_EQ(got.sync, 0u);
  EXPECT_EQ(got.dma, 0u);
  EXPECT_EQ(got.pio, 0u);
  EXPECT_EQ(got.occupy, 0u);
  EXPECT_EQ(got.enqueue, 1u) << "only the descriptor queue's push frame";
}

TEST(FrameCount, FatTreeWavePinned) {
  constexpr int kHosts = 128;
  workload::TrafficConfig cfg;
  cfg.pattern = workload::TrafficPattern::kUniform;
  cfg.sizes = workload::SizeDistribution::bounded_pareto(1.2, 32, 2048);
  cfg.flow_rate_per_host = 1e5;
  cfg.flows_per_host = 8;
  cfg.seed = 1;
  const workload::Schedule sched = workload::make_schedule(cfg, kHosts);
  net::ParallelCluster cl(net::fat_tree_cluster(kHosts, 0, 1), 1);
  workload::TrafficEngine te(cl);

  // The warm-up wave grows the frame and buffer pools; the run is on the
  // calling thread, whose frame pool the counter reads.
  (void)te.run_wave(sched, 1);
  const std::uint64_t f0 = frames();
  const workload::WaveResult wave = te.run_wave(sched, 1);
  const std::uint64_t wave_frames = frames() - f0;

  EXPECT_EQ(wave.completed, sched.total_flows);
  EXPECT_EQ(wave.pending_roots, 0);
  EXPECT_EQ(wave.events, 30069u);
  EXPECT_EQ(wave.digest, 0x44d8b2e8f62624edull);
  // 38.52 frames per flow; 56,712 (55.38) while the leaf waits were
  // coroutines.
  EXPECT_EQ(wave_frames, 39442u);
}

}  // namespace
}  // namespace fmx
