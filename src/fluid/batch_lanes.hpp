// The lane variants of fluid::solve_batch (DESIGN.md §16): its step driver
// compiled once per ISA, 4 lanes per vector and, on x86-64 SIMD builds,
// 8 with AVX-512. solve_batch runs the widest one the CPU supports. A
// test seam that reaches every width on one host, not an option.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fluid/batch.hpp"

namespace pdos::fluid::detail {

struct LaneBatch;

/// One compiled build of solve_batch's step driver.
struct LaneVariant {
  const char* backend;      // "avx512", "avx2", "neon" or "scalar"
  std::size_t lanes;        // lanes per vector
  bool (*cpu_supports)();   // whether the running CPU can execute it
  void (*run)(LaneBatch&);  // steps every lane of a batch to its horizon
};

/// Every variant in this build, narrowest first; the first, 4 lanes on
/// simd_backend(), runs wherever the build runs.
std::span<const LaneVariant> lane_variants();
/// The variant solve_batch runs: the widest one the CPU supports.
const LaneVariant& selected_lane_variant();
/// solve_batch on a given variant, which the CPU must support.
std::vector<FluidResult> solve_batch_on(const LaneVariant& variant,
                                        const FluidConfig& config,
                                        const std::vector<BatchLane>& lanes,
                                        const FluidControl& control);

}  // namespace pdos::fluid::detail
