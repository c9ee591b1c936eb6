// Same-run performance floors: four A/B ratios, each measured inside one
// run of this binary, so a failing floor means the code changed, not the
// host. Design references are DESIGN.md sections.
//
//   fluid vs full-packet fig. 6 quick grid point        >= 100x  (§12)
//   solve_batch W=8 γ-grid vs fluid/refbench             >= 1.10x (§16)
//   binned 1e6-flow fluid::solve vs fluid/refbench       >= 1.25x (§16)
//   4-worker vs 1-worker cold multi-process campaign     >= 2.5x  (§15)
//
// Two correctness checks ride along: refbench must agree with the
// vectorized solvers within 1e-3, and the campaign must finish ok() with
// an all-hit resume that simulates nothing and reproduces the merged CSV
// byte for byte. Absolute speeds are not gated here: perfbench/ reports
// them per layer, and the bench/micro_* binaries keep every arm.
//
// Usage: bench_report (no arguments; writes no file). Exit status: 0 when
// every floor and check holds, 1 when one fails, 2 on any argument.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/pulse.hpp"
#include "core/experiment.hpp"
#include "fluid/batch.hpp"
#include "fluid/fluid.hpp"
#include "fluid/refbench.hpp"
#include "sweep/campaign.hpp"
#include "sweep/sweep.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

using Clock = std::chrono::steady_clock;

// Best-of samples per arm; the full-packet point costs ~100 fluid points.
constexpr int kReps = 7;
constexpr int kPacketReps = 3;

// The surrogate-tier contract (§12).
constexpr double kFluidSpeedupFloor = 100.0;

// The vectorization contract (§16), against the frozen pre-vectorization
// scalar solver (fluid/refbench.hpp) on the same inputs; gated only on real
// SIMD kernels. The floors sit far below the naive 4-lane ideal: each
// lane-step still pays a scalar driver (libm exp, RED bookkeeping, step
// clipping), the binned solve runs it one lane at a time, and refbench is
// itself SSE2 auto-vectorized. The binned ratio needs the LTO build
// (CMakeLists.txt, PDOS_LTO).
constexpr double kFluidBatchSpeedupFloor = 1.10;
constexpr double kFluidBinnedSpeedupFloor = 1.25;
constexpr int kFluidBatchWidth = 8;

// The multi-process campaign contract (§15): a cold kCampaignWorkers-process
// campaign over a shared CampaignStore against one process — only where the
// hardware can deliver it; smaller hosts skip the floor out loud. The
// resume half (all-hit, byte-identical merged CSV) gates on every host.
constexpr double kCampaignSpeedupFloor = 2.5;
constexpr unsigned kCampaignFloorMinThreads = 4;
constexpr int kCampaignWorkers = 4;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

long long g_sink = 0;

/// Best-of-`reps` items/sec for `fn`, which processes `items` per call.
/// Each sample batches calls until it spans >= 10 ms so the clock
/// resolution never dominates.
template <typename F>
double measure_items_per_sec(F&& fn, long long items, int reps) {
  fn();  // warm caches, page in slabs
  const auto probe = Clock::now();
  fn();
  const double once = std::max(seconds_since(probe), 1e-9);
  const int batch = std::max(1, static_cast<int>(0.01 / once));
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (int b = 0; b < batch; ++b) fn();
    const double rate =
        static_cast<double>(items) * batch / seconds_since(start);
    best = std::max(best, rate);
  }
  return best;
}

// --- floor 1: fluid surrogate vs packet point ----------------------------

/// One fig. 6 quick-mode grid point (15-flow ns-2 dumbbell, T_extent 50 ms,
/// R_attack 25 Mbps, γ = 0.5, 5 s warmup + 15 s measurement) on the given
/// backend; returns the wall time of the run.
double run_fig06_point(ScenarioWorkspace& ws, Backend backend) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  config.backend = backend;
  const PulseTrain train =
      PulseTrain::from_gamma(ms(50), mbps(25), 0.5, config.bottleneck);
  RunControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  const auto start = Clock::now();
  const RunResult result = ws.run(config, train, control);
  g_sink += static_cast<long long>(result.events_executed);
  return seconds_since(start);
}

// --- floors 2 and 3: vectorized fluid kernels vs frozen scalar reference --

/// The fig. 6 quick point as a bare fluid system (no experiment-layer
/// wrapper): the shared topology every γ lane of the batched grid rides.
fluid::FluidConfig fig06_fluid_config() {
  return make_fluid_config(ScenarioConfig::ns2_dumbbell(15));
}

/// A pulse train of T_extent 50 ms at γ on `bottleneck`, fluid view.
fluid::FluidAttack fluid_attack(BitRate rattack, double gamma,
                                BitRate bottleneck) {
  const PulseTrain train =
      PulseTrain::from_gamma(ms(50), rattack, gamma, bottleneck);
  fluid::FluidAttack attack;
  attack.textent = train.textent;
  attack.rattack = train.rattack;
  attack.tspace = train.tspace;
  return attack;
}

/// The million-flow population binned to 64 classes, exactly as
/// bench/micro_fluid.cpp's BM_FluidSolveMillionFlowsBinned builds it: the
/// class-vectorization showcase (64 padded SoA classes, no batch lanes).
fluid::FluidConfig binned_million_flow_config() {
  fluid::FluidConfig config = fig06_fluid_config();
  constexpr int kFlows = 1000000;
  std::vector<fluid::FluidClass> classes;
  classes.reserve(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    const double frac = static_cast<double>(i) / (kFlows - 1);
    classes.push_back(fluid::FluidClass{ms(20) + frac * ms(440), 1.0});
  }
  config.classes = fluid::bin_classes(std::move(classes), 64);
  config.bottleneck = gbps(10);
  config.red = RedParams::paper_testbed(4000);
  return config;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

struct FluidSimdMeasurement {  // best-of walls, seconds
  double batch_grid_wall = kInf;   // solve_batch, W-lane γ-grid, SIMD kernels
  double ref_grid_wall = kInf;     // refbench::solve point-at-a-time, same grid
  double vec_binned_wall = kInf;   // fluid::solve, binned 1e6-flow config
  double ref_binned_wall = kInf;   // refbench::solve, same binned config
};

/// Interleaved best-of-reps A/B, both arms warm, of the vectorized fluid
/// paths against the frozen scalar reference solver (compiled without SIMD
/// arch flags): the W = kFluidBatchWidth γ-grid through solve_batch vs the
/// same grid point-at-a-time, and the binned 1e6-flow solve vs its scalar
/// twin. The two agree only to reduction-reassociation error (~ulps).
FluidSimdMeasurement measure_fluid_simd(int reps) {
  const fluid::FluidConfig config = fig06_fluid_config();
  fluid::FluidControl control;  // the fig. 6 quick window
  control.warmup = sec(5);
  control.measure = sec(15);
  std::vector<fluid::BatchLane> lanes;
  for (int gi = 1; gi <= kFluidBatchWidth; ++gi) {
    lanes.push_back(fluid::BatchLane{
        fluid_attack(mbps(25), 0.1 * gi, config.bottleneck)});
  }
  const fluid::FluidConfig binned = binned_million_flow_config();
  const fluid::FluidAttack binned_attack = fluid_attack(
      binned.bottleneck * (25.0 / 15.0), 0.5, binned.bottleneck);

  const auto batch_grid_pass = [&]() -> double {
    const std::vector<fluid::FluidResult> results =
        fluid::solve_batch(config, lanes, control);
    g_sink += static_cast<long long>(results.front().steps);
    return results.back().goodput_bytes;
  };
  const auto ref_grid_pass = [&]() -> double {
    double last = 0.0;
    for (const fluid::BatchLane& lane : lanes) {
      const fluid::FluidResult result =
          fluid::refbench::solve(config, lane.attack, control);
      g_sink += static_cast<long long>(result.steps);
      last = result.goodput_bytes;
    }
    return last;
  };
  const auto vec_binned_pass = [&]() -> double {
    const fluid::FluidResult result =
        fluid::solve(binned, binned_attack, control);
    g_sink += static_cast<long long>(result.steps);
    return result.goodput_bytes;
  };
  const auto ref_binned_pass = [&]() -> double {
    const fluid::FluidResult result =
        fluid::refbench::solve(binned, binned_attack, control);
    g_sink += static_cast<long long>(result.steps);
    return result.goodput_bytes;
  };

  // Warm both arms and sanity-check the reference against the vectorized
  // results: same physics, different reduction order — agreement should be
  // far inside 0.1%. A bigger gap means the frozen snapshot drifted.
  const double grid_vec = batch_grid_pass();
  const double grid_ref = ref_grid_pass();
  const double binned_vec = vec_binned_pass();
  const double binned_ref = ref_binned_pass();
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-3 * std::max(std::abs(a), std::abs(b));
  };
  if (!close(grid_vec, grid_ref) || !close(binned_vec, binned_ref)) {
    std::fprintf(stderr,
                 "bench_report: refbench solver diverged from fluid::solve "
                 "(grid %.17g vs %.17g, binned %.17g vs %.17g)\n",
                 grid_vec, grid_ref, binned_vec, binned_ref);
    std::exit(1);
  }

  const auto time_into = [](double& best, const auto& pass) {
    const auto start = Clock::now();
    pass();
    best = std::min(best, seconds_since(start));
  };
  FluidSimdMeasurement m;
  for (int r = 0; r < reps; ++r) {
    time_into(m.batch_grid_wall, batch_grid_pass);
    time_into(m.ref_grid_wall, ref_grid_pass);
    time_into(m.vec_binned_wall, vec_binned_pass);
    time_into(m.ref_binned_wall, ref_binned_pass);
  }
  return m;
}

// --- floor 4: multi-process campaign A/B (DESIGN.md §15) ------------------

/// The campaign target grid: one fast-backend fig. 6 slice with enough
/// independent tasks (32 points + 4 baselines) that four workers can
/// partition it meaningfully, and per-task horizons long enough that the
/// simulation dwarfs fork + store overhead.
sweep::SweepSpec campaign_bench_spec() {
  sweep::SweepSpec spec;
  spec.backend = Backend::kFast;
  spec.flow_counts = {15};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  spec.replicates = 4;
  spec.control.warmup = sec(5);
  spec.control.measure = sec(15);
  return spec;
}

struct CampaignMeasurement {
  std::size_t unique_tasks = 0;
  double single_wall = 0.0;   // cold, 1 worker, fresh store
  double multi_wall = 0.0;    // cold, kCampaignWorkers workers, fresh store
  double resume_wall = 0.0;   // identical campaign over the warm store
  std::size_t resume_simulated = 0;  // must be 0: all-hit resume
  bool csv_identical = false;  // single == multi == resume, byte for byte
  bool ok = false;             // no point failures, no worker crashes
};

/// Three campaigns over the same spec: cold single-process, cold
/// K-process (fresh store each), then a resume of the K-process store.
/// Single-shot rather than best-of — a cold campaign consumed its own
/// precondition, and the resume arm is a correctness check first. The
/// stores live in a fresh temporary directory, removed afterwards.
CampaignMeasurement measure_campaign() {
  std::string store_root =
      (std::filesystem::temp_directory_path() / "pdos_bench_report_XXXXXX")
          .string();
  if (::mkdtemp(store_root.data()) == nullptr) {
    std::fprintf(stderr, "bench_report: cannot create %s\n",
                 store_root.c_str());
    std::exit(1);
  }
  CampaignMeasurement m;
  sweep::CampaignSpec spec;
  spec.spec = campaign_bench_spec();
  spec.name = "bench";

  sweep::CampaignOptions options;
  options.threads = 1;  // per worker: process count is the variable
  options.claim_poll_seconds = 0.01;

  options.store_dir = store_root + "/single";
  options.workers = 1;
  const sweep::CampaignResult single = sweep::run_campaign({spec}, options);
  m.unique_tasks = single.unique_tasks;
  m.single_wall = single.wall_seconds;

  options.store_dir = store_root + "/multi";
  options.workers = kCampaignWorkers;
  const sweep::CampaignResult multi = sweep::run_campaign({spec}, options);
  m.multi_wall = multi.wall_seconds;

  const sweep::CampaignResult resume = sweep::run_campaign({spec}, options);
  m.resume_wall = resume.wall_seconds;
  m.resume_simulated = resume.worker_simulated + resume.final_simulated;
  m.ok = single.ok() && multi.ok() && resume.ok();

  std::ostringstream a, b, c;
  single.specs[0].result.write_csv(a);
  multi.specs[0].result.write_csv(b);
  resume.specs[0].result.write_csv(c);
  m.csv_identical = a.str() == b.str() && b.str() == c.str();

  std::filesystem::remove_all(store_root);
  return m;
}

}  // namespace
}  // namespace pdos

int main(int argc, char** argv) {
  using namespace pdos;
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }

  // Floor 1: the same fig. 6 quick grid point on the fluid surrogate and
  // the full packet path, each in its own warm workspace.
  ScenarioWorkspace fluid_ws;
  const double fluid_point_wall =
      1.0 / measure_items_per_sec(
                [&fluid_ws] { run_fig06_point(fluid_ws, Backend::kFluid); },
                1, kReps);
  double packet_point_wall = kInf;
  {
    ScenarioWorkspace packet_ws;
    run_fig06_point(packet_ws, Backend::kFull);  // warm
    for (int r = 0; r < kPacketReps; ++r) {
      packet_point_wall = std::min(packet_point_wall,
                                   run_fig06_point(packet_ws, Backend::kFull));
    }
  }
  const double fluid_speedup = packet_point_wall / fluid_point_wall;

  const FluidSimdMeasurement fluid_simd = measure_fluid_simd(kReps);
  const double fluid_batch_speedup =
      fluid_simd.ref_grid_wall / fluid_simd.batch_grid_wall;
  const double fluid_binned_speedup =
      fluid_simd.ref_binned_wall / fluid_simd.vec_binned_wall;

  // Floor 4. run_campaign forks, which is safe here: every thread the
  // measurements above started has been joined by now.
  const CampaignMeasurement campaign = measure_campaign();
  const double campaign_speedup = campaign.single_wall / campaign.multi_wall;

  std::printf("fluid_point: fluid %.6f s, packet %.3f s, speedup %.0fx "
              "(floor %.2fx)\n",
              fluid_point_wall, packet_point_wall, fluid_speedup,
              kFluidSpeedupFloor);
  std::printf("fluid_simd (%s classes, %s lanes): batch W=%d grid %.6f s vs "
              "scalar-ref %.6f s, speedup %.2fx (floor %.2fx); binned-1e6 "
              "%.6f s vs %.6f s, speedup %.2fx (floor %.2fx)\n",
              fluid::simd_backend(), fluid::batch_simd_backend(),
              kFluidBatchWidth,
              fluid_simd.batch_grid_wall, fluid_simd.ref_grid_wall,
              fluid_batch_speedup, kFluidBatchSpeedupFloor,
              fluid_simd.vec_binned_wall, fluid_simd.ref_binned_wall,
              fluid_binned_speedup, kFluidBinnedSpeedupFloor);
  std::printf("campaign %zu tasks: 1 worker %.3f s, %d workers %.3f s, "
              "speedup %.2fx (floor %.2fx on >= %u threads); resume %.3f s "
              "(%zu simulated, csv %s)\n",
              campaign.unique_tasks, campaign.single_wall, kCampaignWorkers,
              campaign.multi_wall, campaign_speedup, kCampaignSpeedupFloor,
              kCampaignFloorMinThreads, campaign.resume_wall,
              campaign.resume_simulated,
              campaign.csv_identical ? "identical" : "DIVERGED");

  int regressions = 0;
  const unsigned threads = std::thread::hardware_concurrency();
  if (threads < kCampaignFloorMinThreads) {
    std::printf("campaign speedup floor skipped: %u hardware thread(s) < %u\n",
                threads, kCampaignFloorMinThreads);
  } else if (campaign_speedup < kCampaignSpeedupFloor) {
    std::fprintf(stderr,
                 "REGRESSION: %d-worker cold campaign is only %.2fx faster "
                 "than 1 worker (floor: %.2fx on %u threads)\n",
                 kCampaignWorkers, campaign_speedup, kCampaignSpeedupFloor,
                 threads);
    ++regressions;
  }
  if (!campaign.ok || campaign.resume_simulated != 0 ||
      !campaign.csv_identical) {
    std::fprintf(stderr,
                 "REGRESSION: campaign resume contract broken (ok=%d, "
                 "resume simulated %zu, csv %s)\n",
                 campaign.ok ? 1 : 0, campaign.resume_simulated,
                 campaign.csv_identical ? "identical" : "diverged");
    ++regressions;
  }
  if (fluid_speedup < kFluidSpeedupFloor) {
    std::fprintf(stderr,
                 "REGRESSION: fluid point is only %.1fx faster than the "
                 "packet point (floor: %.2fx)\n",
                 fluid_speedup, kFluidSpeedupFloor);
    ++regressions;
  }
  // The batched grid runs on solve_batch's lane axis, the binned solve on
  // the class axis; each floor is skipped when its axis is scalar.
  if (std::string(fluid::batch_simd_backend()) == "scalar") {
    std::printf("fluid batch speedup floor skipped: scalar lanes "
                "(PDOS_SIMD=OFF or no AVX2/NEON)\n");
  } else if (fluid_batch_speedup < kFluidBatchSpeedupFloor) {
    std::fprintf(stderr,
                 "REGRESSION: batched W=%d fluid grid is only %.2fx "
                 "faster than the scalar reference (floor: %.2fx)\n",
                 kFluidBatchWidth, fluid_batch_speedup,
                 kFluidBatchSpeedupFloor);
    ++regressions;
  }
  if (std::string(fluid::simd_backend()) == "scalar") {
    std::printf("fluid binned speedup floor skipped: scalar classes "
                "(PDOS_SIMD=OFF or no AVX2/NEON)\n");
  } else if (fluid_binned_speedup < kFluidBinnedSpeedupFloor) {
    std::fprintf(stderr,
                 "REGRESSION: binned 1e6-flow fluid solve is only %.2fx "
                 "faster than the scalar reference (floor: %.2fx)\n",
                 fluid_binned_speedup, kFluidBinnedSpeedupFloor);
    ++regressions;
  }

  if (regressions > 0) {
    std::fprintf(stderr, "bench_report: %d benchmark(s) regressed\n",
                 regressions);
    return 1;
  }
  return 0;
}
