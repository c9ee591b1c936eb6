// Frozen scalar reference solver for benchmark A/B ratios only.
//
// This is a verbatim snapshot of the fluid solver as it stood before the
// vectorized kernels landed (DESIGN.md §16): branchy per-class loops,
// linear (non-tree) offered-rate reduction, no lane padding. It is
// compiled without any SIMD arch flags (see src/fluid/CMakeLists.txt) so
// bench_report and micro_fluid can measure an honest same-machine
// "pre-PR scalar" arm against the vectorized paths — bench_report's
// ≥1.25x binned and ≥1.10x batched γ-grid floors are in-run ratios against
// this solver, not cross-host wall-clock comparisons.
//
// Nothing outside bench/ and tools/ may depend on this header. The
// snapshot is intentionally NOT kept semantically in sync with
// fluid::solve: its results agree only to the reassociation error of the
// offered-rate reduction (~1 ulp per class), which is irrelevant for
// timing and asserted loosely where the benches sanity-check outputs.
#pragma once

#include "fluid/fluid.hpp"

namespace pdos::fluid::refbench {

/// Pre-PR scalar solve: identical inputs/outputs to fluid::solve, legacy
/// per-class scalar loops inside.
FluidResult solve(const FluidConfig& config,
                  const std::optional<FluidAttack>& attack,
                  const FluidControl& control);

}  // namespace pdos::fluid::refbench
