// Scenario setup microbenchmarks (google-benchmark): fresh-construct vs
// warm-reset scenario builds, on the paper's dumbbell and on perfbench's
// gigabit_fast scenario, plus the per-flow start-offset draw on its own.
// These isolate what the sweep engine's workspace reuse saves per point;
// perfbench reports the same builds as core.cold_build_us and
// core.warm_build_us.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "attack/pulse.hpp"
#include "core/experiment.hpp"
#include "util/rng.hpp"
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

/// perfbench's gigabit_fast: large_scale(1000, 1 Gbps), fast path on, under
/// a γ = 0.3 pulse train scaled to the bottleneck (the `BM_GigabitSetup*`
/// argument turns the train off or on).
ScenarioConfig gigabit_config() {
  return ScenarioConfig::large_scale(1000, gbps(1));
}
PulseTrain gigabit_train() {
  return PulseTrain::from_gamma(ms(50), gbps(1) * (25.0 / 15.0), 0.3, gbps(1));
}

/// Cold path: a brand-new workspace per point — every arena block, slab,
/// and container capacity is paid again.
void time_fresh_builds(benchmark::State& state, const ScenarioConfig& config,
                       const std::optional<PulseTrain>& attack) {
  const RunControl control = setup_only_control();
  for (auto _ : state) {
    ScenarioWorkspace ws;
    benchmark::DoNotOptimize(ws.run(config, attack, control));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("items = scenario builds");
}

/// Warm path: one workspace rewound between points, the way run_sweep
/// workers reuse them. After the first lap this allocates nothing.
void time_warm_builds(benchmark::State& state, const ScenarioConfig& config,
                      const std::optional<PulseTrain>& attack) {
  const RunControl control = setup_only_control();
  ScenarioWorkspace ws;
  benchmark::DoNotOptimize(ws.run(config, attack, control));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ws.run(config, attack, control));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("items = scenario builds");
}

void BM_ScenarioSetupFresh(benchmark::State& state) {
  time_fresh_builds(
      state, ScenarioConfig::ns2_dumbbell(static_cast<int>(state.range(0))),
      std::nullopt);
}
BENCHMARK(BM_ScenarioSetupFresh)->Arg(15)->Arg(45);

void BM_ScenarioSetupWarm(benchmark::State& state) {
  time_warm_builds(
      state, ScenarioConfig::ns2_dumbbell(static_cast<int>(state.range(0))),
      std::nullopt);
}
BENCHMARK(BM_ScenarioSetupWarm)->Arg(15)->Arg(45);

/// The gigabit train when the benchmark's argument is 1, none when it is 0,
/// so one run shows what the attack adds to a 1000-flow set-up.
std::optional<PulseTrain> gigabit_attack(const benchmark::State& state) {
  if (state.range(0) == 0) return std::nullopt;
  return gigabit_train();
}

void BM_GigabitSetupFresh(benchmark::State& state) {
  time_fresh_builds(state, gigabit_config(), gigabit_attack(state));
}
BENCHMARK(BM_GigabitSetupFresh)
    ->ArgName("train")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_GigabitSetupWarm(benchmark::State& state) {
  time_warm_builds(state, gigabit_config(), gigabit_attack(state));
}
BENCHMARK(BM_GigabitSetupWarm)
    ->ArgName("train")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// The gigabit scenario's 1000 flow start seeds (seed 1; the tag is
/// core/experiment.cpp's flow start stream).
std::vector<std::uint64_t> flow_start_seeds() {
  constexpr std::uint64_t kFlowStartStream = 0x666c6f77'73000000ULL;
  std::vector<std::uint64_t> seeds(1000);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    seeds[i] = derive_seed(1, kFlowStartStream + i);
  }
  return seeds;
}

/// One start offset per flow the way the set-up took it before
/// `one_draw_uniforms`: build each flow's engine, take one draw.
void BM_OneDrawEngine(benchmark::State& state) {
  const std::vector<std::uint64_t> seeds = flow_start_seeds();
  std::vector<double> out(seeds.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      out[i] = Rng(seeds[i]).uniform(0.0, ScenarioConfig::kFlowStartSpread);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seeds.size()));
  state.SetLabel("items = seeds");
}
BENCHMARK(BM_OneDrawEngine)->Unit(benchmark::kMicrosecond);

/// The same offsets, bit for bit, derived from the seeds.
void BM_OneDrawDerived(benchmark::State& state) {
  const std::vector<std::uint64_t> seeds = flow_start_seeds();
  std::vector<double> out(seeds.size());
  for (auto _ : state) {
    one_draw_uniforms(seeds, 0.0, ScenarioConfig::kFlowStartSpread, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seeds.size()));
  state.SetLabel("items = seeds");
}
BENCHMARK(BM_OneDrawDerived)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pdos

BENCHMARK_MAIN();
