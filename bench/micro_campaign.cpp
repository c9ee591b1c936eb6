// CampaignStore benchmarks (google-benchmark): the store operations a
// campaign worker issues per task — result append, in-memory lookup,
// claim + release round-trip, and the incremental refresh a drain loop
// polls with (DESIGN.md §15) — and the reopen that every worker start-up
// and resume pays once. Each runs against a throwaway store directory
// under /tmp, so the numbers include the real flock + append syscall cost.
// These are for interactive work on the store layer — the gated ≥2.5x
// 4-worker cold campaign floor lives in tools/bench_report, and
// perfbench's fluid_campaign workload reports store.open_ms,
// store.claim_us_p50 and store.append_us_p50.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "sweep/campaign_store.hpp"

namespace pdos::sweep {
namespace {

/// A fresh store directory per benchmark run, removed on destruction.
class ScratchStore {
 public:
  ScratchStore() {
    char name[] = "/tmp/pdos_micro_campaign_XXXXXX";
    if (mkdtemp(name) == nullptr) std::abort();
    dir_ = name;
    store_ = std::make_unique<CampaignStore>(dir_);
  }
  ~ScratchStore() {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  CampaignStore& store() { return *store_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::unique_ptr<CampaignStore> store_;
};

CachedPoint sample_point() {
  CachedPoint p;
  p.c_psi = 0.1748646993;
  p.analytic_degradation = 0.417117669;
  p.analytic_gain = 0.2919823683;
  p.baseline_goodput = 14250666.0;
  p.goodput = 8821333.0;
  p.measured_degradation = 0.380988024;
  p.measured_gain = 0.2666916168;
  p.utilization = 0.5880888889;
  p.fairness = 0.3946231059;
  p.fast_recoveries = 3;
  p.attack_packets = 1200;
  p.events = 11850;
  return p;
}

/// Appending one point record: serialize + flock + O_APPEND write.
void BM_StoreAppend(benchmark::State& state) {
  ScratchStore scratch;
  const CachedPoint point = sample_point();
  std::uint64_t key = 0;
  for (auto _ : state) {
    scratch.store().store_point(key++, point);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAppend);

/// In-memory hit path — what every warm campaign task costs.
void BM_StoreLookupHit(benchmark::State& state) {
  ScratchStore scratch;
  const CachedPoint point = sample_point();
  constexpr std::uint64_t kKeys = 1024;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    scratch.store().store_point(k * 0x9e3779b97f4a7c15ull, point);
  }
  CachedPoint out;
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scratch.store().lookup_point((k++ % kKeys) * 0x9e3779b97f4a7c15ull,
                                     out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreLookupHit);

/// Claim + release round-trip: two flock'd appends plus a tail scan — the
/// per-task coordination overhead a cold campaign pays.
void BM_StoreClaimRelease(benchmark::State& state) {
  ScratchStore scratch;
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scratch.store().claim_point(key));
    scratch.store().release_point(key);
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreClaimRelease);

/// Reopening a store of 10,000 point records, each with the lease that
/// claimed it, as a cold campaign leaves them: stat, read and parse all 16
/// segments into a fresh index.
void BM_StoreOpen(benchmark::State& state) {
  ScratchStore scratch;
  const CachedPoint point = sample_point();
  constexpr std::uint64_t kPoints = 10000;
  for (std::uint64_t k = 0; k < kPoints; ++k) {
    const std::uint64_t key = k * 0x9e3779b97f4a7c15ull;
    benchmark::DoNotOptimize(scratch.store().claim_point(key));
    scratch.store().store_point(key, point);
  }
  for (auto _ : state) {
    CampaignStore reopened(scratch.dir());
    benchmark::DoNotOptimize(reopened.size());
  }
  state.SetItemsProcessed(state.iterations() * kPoints);
}
BENCHMARK(BM_StoreOpen)->Unit(benchmark::kMillisecond);

/// Refresh with nothing new: 16 shared-lock tail checks — the idle cost of
/// one drain-loop poll.
void BM_StoreRefreshIdle(benchmark::State& state) {
  ScratchStore scratch;
  const CachedPoint point = sample_point();
  for (std::uint64_t k = 0; k < 256; ++k) {
    scratch.store().store_point(k * 0x9e3779b97f4a7c15ull, point);
  }
  for (auto _ : state) {
    scratch.store().refresh();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreRefreshIdle);

/// Refresh that folds in one peer append — the productive drain-loop poll.
void BM_StoreRefreshOneNew(benchmark::State& state) {
  ScratchStore reader;
  CampaignStore writer(reader.dir());
  const CachedPoint point = sample_point();
  std::uint64_t key = 0;
  for (auto _ : state) {
    state.PauseTiming();
    writer.store_point(key++, point);
    state.ResumeTiming();
    reader.store().refresh();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreRefreshOneNew);

}  // namespace
}  // namespace pdos::sweep

BENCHMARK_MAIN();
