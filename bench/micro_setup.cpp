// Scenario setup microbenchmarks (google-benchmark): fresh-construct vs
// warm-reset scenario builds, and the arena vs heap construction paths.
// These isolate what the sweep engine's workspace reuse saves per point;
// perfbench reports the same builds as core.cold_build_us and
// core.warm_build_us.
#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

/// A horizon so short that almost no simulation events execute: the cost
/// measured is topology construction (+ teardown on reset), not the run.
RunControl setup_only_control() {
  RunControl control;
  control.warmup = 0.0;
  control.measure = ms(1);
  return control;
}

void BM_ScenarioSetupFresh(benchmark::State& state) {
  // Cold path: a brand-new workspace per point — every arena block, slab,
  // and container capacity is paid again.
  const ScenarioConfig config =
      ScenarioConfig::ns2_dumbbell(static_cast<int>(state.range(0)));
  const RunControl control = setup_only_control();
  for (auto _ : state) {
    ScenarioWorkspace ws;
    benchmark::DoNotOptimize(ws.run(config, std::nullopt, control));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("items = scenario builds");
}
BENCHMARK(BM_ScenarioSetupFresh)->Arg(15)->Arg(45);

void BM_ScenarioSetupWarm(benchmark::State& state) {
  // Warm path: one workspace rewound between points, the way run_sweep
  // workers reuse them. After the first lap this allocates nothing.
  const ScenarioConfig config =
      ScenarioConfig::ns2_dumbbell(static_cast<int>(state.range(0)));
  const RunControl control = setup_only_control();
  ScenarioWorkspace ws;
  benchmark::DoNotOptimize(ws.run(config, std::nullopt, control));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ws.run(config, std::nullopt, control));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("items = scenario builds");
}
BENCHMARK(BM_ScenarioSetupWarm)->Arg(15)->Arg(45);

}  // namespace
}  // namespace pdos

BENCHMARK_MAIN();
