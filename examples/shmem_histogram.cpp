// Shmem-FM + Global Arrays example: a distributed histogram and a
// global-array accumulate, using the one-sided APIs the paper lists among
// the layers implemented on FM 2.x (§4.2).
//
// Every PE draws samples and bins them with remote fetch-add into the
// owner PE's bin counters; then each PE accumulates a row patch into a
// global array and PE 0 checks the sums.
//
// Build & run:  ./build/examples/shmem_histogram
#include <cstdio>
#include <memory>
#include <vector>

#include "ga/global_array.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "shmem/shmem.hpp"
#include "sim/random.hpp"

using namespace fmx;
using shmem::ShmemCtx;
using sim::Task;

namespace {

constexpr int kPes = 4;
constexpr int kBins = 32;               // kBins/kPes bins per PE
constexpr int kSamplesPerPe = 500;
constexpr std::size_t kGaRows = 16, kGaCols = 8;
constexpr std::size_t kGaHeapOff = 64 * 1024;  // GA region in the heap

int g_done = 0;
bool g_ok = false;

Task<void> pe_program(ShmemCtx& me, ga::GlobalArray& g) {
  const int bins_per_pe = kBins / kPes;
  sim::Rng rng(1000 + me.pe());

  // Phase 1: histogram. Bin b lives on PE b / bins_per_pe at offset
  // (b % bins_per_pe) * 8 in the symmetric heap.
  for (int i = 0; i < kSamplesPerPe; ++i) {
    int bin = static_cast<int>(rng.uniform(0, kBins - 1));
    int owner = bin / bins_per_pe;
    std::size_t off = static_cast<std::size_t>(bin % bins_per_pe) * 8;
    (void)co_await me.fetch_add(owner, off, 1);
  }

  // Phase 2: every PE accumulates 1.0 into the whole global array.
  std::vector<double> ones(kGaRows * kGaCols, 1.0);
  co_await g.acc_rows(0, kGaRows, ones);
  co_await g.flush();

  ++g_done;
  // Keep serving one-sided requests until everyone is finished.
  co_await me.poll_until([] { return g_done == kPes; });
}

}  // namespace

int main() {
  net::ParallelCluster cluster(net::ppro_fm2_cluster(kPes), 1);
  sim::Engine& engine = cluster.shard_engine(0);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  std::vector<std::unique_ptr<ShmemCtx>> pes;
  std::vector<std::unique_ptr<ga::GlobalArray>> gas;
  for (int p = 0; p < kPes; ++p) {
    eps.push_back(std::make_unique<fm2::Endpoint>(cluster.node(p),
                                                  cluster.fabric_of(p)));
    pes.push_back(std::make_unique<ShmemCtx>(*eps.back()));
    std::memset(pes[p]->heap().data(), 0, pes[p]->heap().size());
    gas.push_back(
        std::make_unique<ga::GlobalArray>(*pes[p], kGaRows, kGaCols,
                                          kGaHeapOff));
  }
  for (int p = 0; p < kPes; ++p) {
    engine.spawn(pe_program(*pes[p], *gas[p]));
  }
  // Termination nudge: once all PEs are done, wake any sleeping pollers.
  engine.spawn([](sim::Engine& e,
                  std::vector<std::unique_ptr<ShmemCtx>>& ps) -> Task<void> {
    while (g_done < kPes) {
      co_await e.delay(sim::ms(1));
      for (auto& pe : ps) pe->kick();
    }
    for (auto& pe : ps) pe->kick();
  }(engine, pes));
  cluster.run();

  // Validate: the histogram bins must sum to the total sample count.
  std::int64_t total = 0;
  const int bins_per_pe = kBins / kPes;
  std::printf("histogram bins: ");
  for (int p = 0; p < kPes; ++p) {
    for (int b = 0; b < bins_per_pe; ++b) {
      std::int64_t v;
      std::memcpy(&v, pes[p]->heap().data() + b * 8, 8);
      total += v;
      std::printf("%lld ", static_cast<long long>(v));
    }
  }
  std::printf("\nsamples binned: %lld (expected %d)\n",
              static_cast<long long>(total), kPes * kSamplesPerPe);

  // Validate: every GA cell must equal kPes (each PE accumulated 1.0).
  bool ga_ok = true;
  for (int p = 0; p < kPes; ++p) {
    for (double v : gas[p]->local_rows()) {
      if (v != static_cast<double>(kPes)) ga_ok = false;
    }
  }
  std::printf("global array accumulate: %s\n", ga_ok ? "ok" : "WRONG");
  std::printf("simulated time: %.2f ms\n", sim::to_us(engine.now()) / 1e3);

  g_ok = (total == kPes * kSamplesPerPe) && ga_ok &&
         engine.pending_roots() == 0;
  return g_ok ? 0 : 1;
}
