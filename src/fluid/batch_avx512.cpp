// solve_batch's step driver at 8 lanes per vector. The only TU compiled
// with -mavx512f -mavx512dq (src/fluid/CMakeLists.txt), exactly the
// features batch.cpp checks for before it runs this variant.
#include "fluid/batch_driver.hpp"

namespace pdos::fluid::detail {

static_assert(simd::avx512::DVec::kLanes == 8);

void run_lanes_avx512(LaneBatch& batch) {
  batch.step_lanes<simd::avx512::DVec>();
}

}  // namespace pdos::fluid::detail
