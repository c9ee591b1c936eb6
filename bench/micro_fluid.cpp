// Fluid surrogate benchmarks (google-benchmark): the fig. 6 quick-mode
// grid point (15-flow ns-2 dumbbell, T_extent 50 ms, R_attack 25 Mbps,
// γ = 0.5, 5 s warmup + 15 s measure) evaluated on the fluid backend and
// the full packet backend, plus the bare fluid::solve kernel without the
// experiment wrapper, the lane-batched W = 8 γ-grid
// (fluid::solve_batch, DESIGN.md §16), and the frozen pre-vectorization
// scalar reference (fluid::refbench::solve) as the same-machine A/B arm
// for the vectorized paths. These are for interactive work on the
// surrogate tier — the tracked, gated numbers (the ≥100x fluid-vs-packet
// floor and the ≥1.10x batched-grid / ≥1.25x binned-solve SIMD floors)
// live in tools/bench_report (BENCH_fluid.json vs
// bench/baseline_fluid.json).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "attack/pulse.hpp"
#include "core/experiment.hpp"
#include "fluid/batch.hpp"
#include "fluid/fluid.hpp"
#include "fluid/refbench.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

PulseTrain fig06_point_train(BitRate bottleneck) {
  return PulseTrain::from_gamma(ms(50), mbps(25), 0.5, bottleneck);
}

RunControl fig06_point_control() {
  RunControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  return control;
}

void run_backend_point(benchmark::State& state, Backend backend) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  config.backend = backend;
  const PulseTrain train = fig06_point_train(config.bottleneck);
  const RunControl control = fig06_point_control();
  ScenarioWorkspace ws;
  for (auto _ : state) {
    const RunResult result = ws.run(config, train, control);
    benchmark::DoNotOptimize(result.goodput_bytes);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("items = fig06 quick grid points");
}

void BM_FluidPoint(benchmark::State& state) {
  run_backend_point(state, Backend::kFluid);
}
BENCHMARK(BM_FluidPoint)->Unit(benchmark::kMicrosecond);

void BM_PacketPoint(benchmark::State& state) {
  run_backend_point(state, Backend::kFull);
}
BENCHMARK(BM_PacketPoint)->Unit(benchmark::kMillisecond);

/// The binned million-flow system shared by the vectorized and reference
/// binned arms. The class list spreads the ns-2 dumbbell's 20-460 ms RTT
/// range over the full population, then bins to 64 classes
/// (fluid::bin_classes): the per-step cost is per *class*, so the solve
/// costs the same as a 64-flow config — the point of opt-in binning.
fluid::FluidConfig binned_million_flow_config() {
  fluid::FluidConfig config =
      make_fluid_config(ScenarioConfig::ns2_dumbbell(15));
  constexpr int kFlows = 1000000;
  std::vector<fluid::FluidClass> classes;
  classes.reserve(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    const double frac = static_cast<double>(i) / (kFlows - 1);
    classes.push_back(fluid::FluidClass{ms(20) + frac * ms(440), 1.0});
  }
  config.classes = fluid::bin_classes(std::move(classes), 64);
  // Scale the bottleneck so per-flow fair share stays sane at N = 1e6,
  // and the attack with it (γ = 0.5 needs R_attack > γ R_bottle).
  config.bottleneck = gbps(10);
  config.red = RedParams::paper_testbed(4000);
  return config;
}

fluid::FluidAttack binned_million_flow_attack(BitRate bottleneck) {
  const PulseTrain train = PulseTrain::from_gamma(
      ms(50), bottleneck * (25.0 / 15.0), 0.5, bottleneck);
  fluid::FluidAttack attack;
  attack.textent = train.textent;
  attack.rattack = train.rattack;
  attack.tspace = train.tspace;
  return attack;
}

void run_binned_solver(benchmark::State& state, bool reference) {
  const fluid::FluidConfig config = binned_million_flow_config();
  const fluid::FluidAttack attack =
      binned_million_flow_attack(config.bottleneck);
  fluid::FluidControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  for (auto _ : state) {
    const fluid::FluidResult result =
        reference ? fluid::refbench::solve(config, attack, control)
                  : fluid::solve(config, attack, control);
    benchmark::DoNotOptimize(result.goodput_bytes);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string("items = 20s horizons, 1e6 flows in 64 "
                             "classes, ") +
                 (reference ? "scalar reference" : fluid::simd_backend()));
}

void BM_FluidSolveMillionFlowsBinned(benchmark::State& state) {
  run_binned_solver(state, false);
}
BENCHMARK(BM_FluidSolveMillionFlowsBinned)->Unit(benchmark::kMicrosecond);

/// The frozen pre-vectorization scalar solver on the same binned system:
/// the denominator of bench_report's binned SIMD floor (DESIGN.md §16).
void BM_FluidSolveMillionFlowsBinnedRef(benchmark::State& state) {
  run_binned_solver(state, true);
}
BENCHMARK(BM_FluidSolveMillionFlowsBinnedRef)->Unit(benchmark::kMicrosecond);

/// The bare solver, no experiment-layer mapping: what the optimizer's
/// inner search actually pays per candidate γ.
void BM_FluidSolve(benchmark::State& state) {
  const ScenarioConfig scenario = ScenarioConfig::ns2_dumbbell(15);
  const fluid::FluidConfig config = make_fluid_config(scenario);
  const PulseTrain train = fig06_point_train(scenario.bottleneck);
  fluid::FluidAttack attack;
  attack.textent = train.textent;
  attack.rattack = train.rattack;
  attack.tspace = train.tspace;
  fluid::FluidControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  for (auto _ : state) {
    const fluid::FluidResult result = fluid::solve(config, attack, control);
    benchmark::DoNotOptimize(result.goodput_bytes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FluidSolve)->Unit(benchmark::kMicrosecond);

/// The 8-lane γ-grid shared by the batched and point-at-a-time grid arms:
/// one fig. 6 topology, γ ∈ {0.1 … 0.8}, per-lane pulse trains — the
/// shape search_confirm_gamma's fluid phase evaluates (DESIGN.md §16).
std::vector<fluid::BatchLane> gamma_grid_lanes(BitRate bottleneck) {
  std::vector<fluid::BatchLane> lanes;
  for (int gi = 1; gi <= 8; ++gi) {
    const PulseTrain train =
        PulseTrain::from_gamma(ms(50), mbps(25), 0.1 * gi, bottleneck);
    fluid::FluidAttack attack;
    attack.textent = train.textent;
    attack.rattack = train.rattack;
    attack.tspace = train.tspace;
    lanes.push_back(fluid::BatchLane{attack});
  }
  return lanes;
}

/// The lane-batched grid: all 8 γ points through one fluid::solve_batch
/// call. Per-point time is this divided by 8 — compare against
/// BM_FluidSolve (vectorized single point) and BM_FluidRefGammaGrid / 8
/// (the scalar reference, the batched-grid SIMD floor's denominator).
void BM_FluidBatchGammaGridW8(benchmark::State& state) {
  const ScenarioConfig scenario = ScenarioConfig::ns2_dumbbell(15);
  const fluid::FluidConfig config = make_fluid_config(scenario);
  const std::vector<fluid::BatchLane> lanes =
      gamma_grid_lanes(scenario.bottleneck);
  fluid::FluidControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  for (auto _ : state) {
    const std::vector<fluid::FluidResult> results =
        fluid::solve_batch(config, lanes, control);
    benchmark::DoNotOptimize(results.front().goodput_bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lanes.size()));
  state.SetLabel(std::string("items = grid points, W=8 lanes, ") +
                 fluid::batch_simd_backend() + " lane variant");
}
BENCHMARK(BM_FluidBatchGammaGridW8)->Unit(benchmark::kMicrosecond);

/// The same 8-point γ-grid through the frozen scalar reference solver,
/// point at a time — what the grid cost before the vectorized tier.
void BM_FluidRefGammaGrid(benchmark::State& state) {
  const ScenarioConfig scenario = ScenarioConfig::ns2_dumbbell(15);
  const fluid::FluidConfig config = make_fluid_config(scenario);
  const std::vector<fluid::BatchLane> lanes =
      gamma_grid_lanes(scenario.bottleneck);
  fluid::FluidControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  for (auto _ : state) {
    for (const fluid::BatchLane& lane : lanes) {
      const fluid::FluidResult result =
          fluid::refbench::solve(config, lane.attack, control);
      benchmark::DoNotOptimize(result.goodput_bytes);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lanes.size()));
  state.SetLabel("items = grid points, scalar reference");
}
BENCHMARK(BM_FluidRefGammaGrid)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pdos

BENCHMARK_MAIN();
