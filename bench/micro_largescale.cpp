// Gigabit-scale scenario benchmarks (google-benchmark): the LargeScale
// dumbbell family (250 flows @ 155 Mbps, 1000 flows @ 1 Gbps) on the
// express-lane/fused `fast` backend and on `full`. These are for interactive
// work on the large-N data path; perfbench's gigabit_fast workload runs the
// 1000-flow scenario end to end. The `arena_mb` counter is the workspace
// arena's footprint (bytes reserved) after the timed runs.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "attack/pulse.hpp"
#include "core/experiment.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

/// Pulse train scaled to the bottleneck per the paper's Eq. (1)-(2): the
/// pulse magnitude must exceed the bottleneck rate for the queue to fill
/// within T_extent, so R_attack tracks R_bottle (same 25/15 ratio as the
/// ns-2 reference scenario) with γ = 0.3 fixing the period.
PulseTrain large_scale_train(BitRate bottleneck) {
  return PulseTrain::from_gamma(ms(50), bottleneck * (25.0 / 15.0), 0.3,
                                bottleneck);
}

/// Short horizon: long enough that steady-state forwarding dominates the
/// build cost, short enough for interactive iteration at 1 Gbps.
RunControl short_horizon() {
  RunControl control;
  control.warmup = sec(0.5);
  control.measure = sec(1.0);
  return control;
}

void run_large_scale(benchmark::State& state, bool fast) {
  ScenarioConfig config = ScenarioConfig::large_scale(
      static_cast<int>(state.range(0)), mbps(static_cast<double>(state.range(1))));
  config.backend = fast ? Backend::kFast : Backend::kFull;
  const PulseTrain train = large_scale_train(config.bottleneck);
  const RunControl control = short_horizon();
  ScenarioWorkspace ws;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const RunResult result = ws.run(config, train, control);
    events += result.events_executed;
    benchmark::DoNotOptimize(result.goodput_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = scheduler events");
  state.counters["arena_mb"] =
      static_cast<double>(ws.simulator().arena().bytes_reserved()) /
      (1024.0 * 1024.0);
}

void BM_LargeScaleFastPath(benchmark::State& state) {
  run_large_scale(state, true);
}
BENCHMARK(BM_LargeScaleFastPath)
    ->Args({250, 155})
    ->Args({1000, 1000})
    ->Unit(benchmark::kMillisecond);

void BM_LargeScaleFullPath(benchmark::State& state) {
  run_large_scale(state, false);
}
BENCHMARK(BM_LargeScaleFullPath)
    ->Args({250, 155})
    ->Args({1000, 1000})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pdos

BENCHMARK_MAIN();
