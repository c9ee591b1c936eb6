// Lane-batched fluid evaluation (DESIGN.md §16): solve W independent
// grid points that share one topology (FluidConfig classes, links, AQM)
// and one measurement window, in lockstep, with chunk-major SIMD state
// (one vector holds four or eight lanes of one class).
//
// Each lane is one (attack plan) grid point — per-lane γ/T_extent/
// R_attack via its own FluidAttack, or an unattacked baseline lane — and
// keeps its EXACT single-point step schedule: its own pulse-edge/RTO/
// bin-edge dt snaps, its own RED EWMA and queue balance, its own
// termination step count. Lanes that finish early are masked off and
// bit-frozen while the rest run on. The per-lane arithmetic sequence is
// IEEE-identical to a standalone fluid::solve of the same lane, so
//
//     solve_batch(cfg, {a, b, c}, ctl)[i] ≡ solve(cfg, lanes[i], ctl)
//
// bit for bit, on every backend (pinned by tests/fluid/batch_test.cpp).
// The win is throughput: the per-class kernel work of all W lanes runs
// through the same SIMD kernels the single-point path uses for its
// classes (kernels.hpp), and the per-step driver (pulse phase, step
// clipping, RED/queue balance) runs a vector of lanes at a time from the
// same templates the single-point path instantiates on one
// (solve_detail.hpp). The vector is 8 lanes on x86-64 CPUs with AVX-512F
// and DQ and 4 elsewhere, picked at run time (batch_simd_backend()) —
// this is what `search_confirm_gamma`'s fluid phase, run_sweep's fluid
// tier, and bench_report's gain-surface emitter batch through.
#pragma once

#include <optional>
#include <vector>

#include "fluid/fluid.hpp"

namespace pdos::fluid {

/// One grid point of a batched solve: the attack plan to evaluate on the
/// shared topology (nullopt = unattacked baseline lane).
struct BatchLane {
  std::optional<FluidAttack> attack;
};

/// Evaluate every lane against the shared (config, control), returning
/// one FluidResult per lane in input order, each bit-identical to the
/// corresponding single-point `solve`. Any W >= 1 is accepted; state is
/// padded internally to the SIMD block width, so ragged tails (grid size
/// not a multiple of the batch width) cost only the pad lanes' arithmetic.
std::vector<FluidResult> solve_batch(const FluidConfig& config,
                                     const std::vector<BatchLane>& lanes,
                                     const FluidControl& control);

/// The SIMD backend solve_batch steps its lanes with on this CPU: "avx512"
/// (8 lanes per vector) on x86-64 CPUs with AVX-512F and DQ, else
/// simd_backend()'s 4-lane one. The results are the same bits either way.
const char* batch_simd_backend();

}  // namespace pdos::fluid
