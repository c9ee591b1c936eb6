// Portable fixed-width SIMD lane abstraction for the fluid tier
// (DESIGN.md §16).
//
// One type — `simd::DVec`, a vector of exactly kLanes = 4 doubles — with
// three interchangeable backends selected at compile time:
//
//   AVX2    one __m256d                 (x86-64, -mavx2)
//   NEON    two float64x2_t             (aarch64)
//   scalar  double[4]                   (everything else, or PDOS_SIMD=OFF)
//
// The width is fixed at 4 in *all* backends on purpose: every reduction in
// the fluid kernels is written as a 4-accumulator block tree
// (acc[i & 3] += term_i, then (a0+a1)+(a2+a3)), so switching backend or
// lane hardware never reassociates a sum — results are bit-identical
// across scalar/AVX2/NEON builds as long as per-lane operations round
// identically, which they do: every op below maps to a single IEEE-754
// binary64 operation per lane and nothing here (or in the TUs that
// include this header — see src/fluid/CMakeLists.txt, -ffp-contract=off)
// is allowed to contract mul+add into fma.
//
// Masks are DVecs whose lanes are all-ones (true) or all-zeros (false) bit
// patterns, as produced by the cmp_* functions; blend() selects whole
// lanes bitwise, so the chosen value's bit pattern survives untouched.
//
// The PDOS_SIMD CMake option (default ON) controls whether the fluid
// targets are built with native vector flags; PDOS_SIMD=OFF defines
// PDOS_SIMD_DISABLE, which forces the scalar backend even when the
// ambient flags would enable AVX2/NEON.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(PDOS_SIMD_DISABLE) && defined(__AVX2__)
#define PDOS_SIMD_BACKEND_AVX2 1
#include <immintrin.h>
#elif !defined(PDOS_SIMD_DISABLE) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define PDOS_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#else
#define PDOS_SIMD_BACKEND_SCALAR 1
#endif

namespace pdos::simd {

/// Fixed vector width shared by all backends; also the block-tree fan-in
/// of every cross-class reduction in the fluid tier.
inline constexpr std::size_t kLanes = 4;

#if defined(PDOS_SIMD_BACKEND_AVX2)

inline constexpr const char* kBackendName = "avx2";

struct DVec {
  __m256d v;
};

inline DVec splat(double x) { return {_mm256_set1_pd(x)}; }
inline DVec zero() { return {_mm256_setzero_pd()}; }
inline DVec load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void store(double* p, DVec a) { _mm256_storeu_pd(p, a.v); }

inline DVec operator+(DVec a, DVec b) { return {_mm256_add_pd(a.v, b.v)}; }
inline DVec operator-(DVec a, DVec b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline DVec operator*(DVec a, DVec b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline DVec operator/(DVec a, DVec b) { return {_mm256_div_pd(a.v, b.v)}; }
inline DVec vmin(DVec a, DVec b) { return {_mm256_min_pd(a.v, b.v)}; }
inline DVec vmax(DVec a, DVec b) { return {_mm256_max_pd(a.v, b.v)}; }
inline DVec vfloor(DVec a) {
  return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
}

inline DVec cmp_lt(DVec a, DVec b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline DVec cmp_ge(DVec a, DVec b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}
inline DVec cmp_gt(DVec a, DVec b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
}

inline DVec vand(DVec a, DVec b) { return {_mm256_and_pd(a.v, b.v)}; }
inline DVec vor(DVec a, DVec b) { return {_mm256_or_pd(a.v, b.v)}; }
/// Lanes of `a` where mask is false; zero where mask is true.
inline DVec vandnot(DVec mask, DVec a) {
  return {_mm256_andnot_pd(mask.v, a.v)};
}
/// Per lane: mask ? a : b (bitwise whole-lane select).
inline DVec blend(DVec mask, DVec a, DVec b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.v)};
}
/// 4-bit sign mask, lane 0 in bit 0.
inline unsigned mask_bits(DVec mask) {
  return static_cast<unsigned>(_mm256_movemask_pd(mask.v));
}
inline double lane(DVec a, std::size_t i) {
  alignas(32) double tmp[kLanes];
  _mm256_store_pd(tmp, a.v);
  return tmp[i];
}

#elif defined(PDOS_SIMD_BACKEND_NEON)

inline constexpr const char* kBackendName = "neon";

struct DVec {
  float64x2_t lo;
  float64x2_t hi;
};

inline DVec splat(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
inline DVec zero() { return splat(0.0); }
inline DVec load(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
inline void store(double* p, DVec a) {
  vst1q_f64(p, a.lo);
  vst1q_f64(p + 2, a.hi);
}

inline DVec operator+(DVec a, DVec b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline DVec operator-(DVec a, DVec b) {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
inline DVec operator*(DVec a, DVec b) {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}
inline DVec operator/(DVec a, DVec b) {
  return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
}
inline DVec vmin(DVec a, DVec b) {
  return {vminq_f64(a.lo, b.lo), vminq_f64(a.hi, b.hi)};
}
inline DVec vmax(DVec a, DVec b) {
  return {vmaxq_f64(a.lo, b.lo), vmaxq_f64(a.hi, b.hi)};
}
inline DVec vfloor(DVec a) { return {vrndmq_f64(a.lo), vrndmq_f64(a.hi)}; }

inline DVec cmp_lt(DVec a, DVec b) {
  return {vreinterpretq_f64_u64(vcltq_f64(a.lo, b.lo)),
          vreinterpretq_f64_u64(vcltq_f64(a.hi, b.hi))};
}
inline DVec cmp_ge(DVec a, DVec b) {
  return {vreinterpretq_f64_u64(vcgeq_f64(a.lo, b.lo)),
          vreinterpretq_f64_u64(vcgeq_f64(a.hi, b.hi))};
}
inline DVec cmp_gt(DVec a, DVec b) {
  return {vreinterpretq_f64_u64(vcgtq_f64(a.lo, b.lo)),
          vreinterpretq_f64_u64(vcgtq_f64(a.hi, b.hi))};
}

inline DVec vand(DVec a, DVec b) {
  return {vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(a.lo),
                                          vreinterpretq_u64_f64(b.lo))),
          vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(a.hi),
                                          vreinterpretq_u64_f64(b.hi)))};
}
inline DVec vor(DVec a, DVec b) {
  return {vreinterpretq_f64_u64(vorrq_u64(vreinterpretq_u64_f64(a.lo),
                                          vreinterpretq_u64_f64(b.lo))),
          vreinterpretq_f64_u64(vorrq_u64(vreinterpretq_u64_f64(a.hi),
                                          vreinterpretq_u64_f64(b.hi)))};
}
inline DVec vandnot(DVec mask, DVec a) {
  return {vreinterpretq_f64_u64(vbicq_u64(vreinterpretq_u64_f64(a.lo),
                                          vreinterpretq_u64_f64(mask.lo))),
          vreinterpretq_f64_u64(vbicq_u64(vreinterpretq_u64_f64(a.hi),
                                          vreinterpretq_u64_f64(mask.hi)))};
}
inline DVec blend(DVec mask, DVec a, DVec b) {
  return {vbslq_f64(vreinterpretq_u64_f64(mask.lo), a.lo, b.lo),
          vbslq_f64(vreinterpretq_u64_f64(mask.hi), a.hi, b.hi)};
}
inline unsigned mask_bits(DVec mask) {
  const uint64x2_t lo = vreinterpretq_u64_f64(mask.lo);
  const uint64x2_t hi = vreinterpretq_u64_f64(mask.hi);
  return static_cast<unsigned>((vgetq_lane_u64(lo, 0) >> 63) |
                               ((vgetq_lane_u64(lo, 1) >> 63) << 1) |
                               ((vgetq_lane_u64(hi, 0) >> 63) << 2) |
                               ((vgetq_lane_u64(hi, 1) >> 63) << 3));
}
inline double lane(DVec a, std::size_t i) {
  double tmp[kLanes];
  store(tmp, a);
  return tmp[i];
}

#else  // PDOS_SIMD_BACKEND_SCALAR

inline constexpr const char* kBackendName = "scalar";

struct DVec {
  double v[kLanes];
};

namespace detail {
inline std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}
inline double from_bits(std::uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}
}  // namespace detail

inline DVec splat(double x) { return {{x, x, x, x}}; }
inline DVec zero() { return splat(0.0); }
inline DVec load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void store(double* p, DVec a) {
  for (std::size_t i = 0; i < kLanes; ++i) p[i] = a.v[i];
}

inline DVec operator+(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline DVec operator-(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline DVec operator*(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
inline DVec operator/(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] / b.v[i];
  return r;
}
// min/max mirror the SSE/AVX semantics (second operand wins on equality or
// NaN), which for the fluid kernels' finite inputs is plain min/max.
inline DVec vmin(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  }
  return r;
}
inline DVec vmax(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  }
  return r;
}
inline DVec vfloor(DVec a) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = std::floor(a.v[i]);
  return r;
}

inline DVec cmp_lt(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = detail::from_bits(a.v[i] < b.v[i] ? ~0ull : 0ull);
  }
  return r;
}
inline DVec cmp_ge(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = detail::from_bits(a.v[i] >= b.v[i] ? ~0ull : 0ull);
  }
  return r;
}
inline DVec cmp_gt(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = detail::from_bits(a.v[i] > b.v[i] ? ~0ull : 0ull);
  }
  return r;
}

inline DVec vand(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = detail::from_bits(detail::bits(a.v[i]) & detail::bits(b.v[i]));
  }
  return r;
}
inline DVec vor(DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = detail::from_bits(detail::bits(a.v[i]) | detail::bits(b.v[i]));
  }
  return r;
}
inline DVec vandnot(DVec mask, DVec a) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    r.v[i] = detail::from_bits(~detail::bits(mask.v[i]) &
                               detail::bits(a.v[i]));
  }
  return r;
}
inline DVec blend(DVec mask, DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < kLanes; ++i) {
    // blendv semantics: the mask's sign bit picks the lane.
    r.v[i] = (detail::bits(mask.v[i]) >> 63) != 0 ? a.v[i] : b.v[i];
  }
  return r;
}
inline unsigned mask_bits(DVec mask) {
  unsigned bits = 0;
  for (std::size_t i = 0; i < kLanes; ++i) {
    bits |= static_cast<unsigned>(detail::bits(mask.v[i]) >> 63) << i;
  }
  return bits;
}
inline double lane(DVec a, std::size_t i) { return a.v[i]; }

#endif

/// Double whose bit pattern is all-ones — the per-lane "true" value for
/// caller-built mask arrays (cmp_* produce the same pattern). The full
/// 64-bit pattern matters: vandnot/vand operate on every bit, not just
/// the sign.
inline double mask_true() {
  const std::uint64_t bits = ~0ull;
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}
/// The per-lane "false" mask value (all-zeros).
inline constexpr double mask_false() { return 0.0; }

/// Population count of a mask_bits() result: how many lanes are true.
inline unsigned mask_count(unsigned bits) {
  unsigned n = 0;
  for (; bits != 0; bits &= bits - 1) ++n;
  return n;
}

// One lane on a plain double, masks as bool: the same surface, so code
// templated over the value type (src/fluid/solve_detail.hpp) runs one
// lane as `double` and four as `DVec` from one source. Each overload is
// the scalar statement its vector twin computes per lane; vmin(a, b) is
// `a < b ? a : b`, the operand order _mm256_min_pd picks by, so the
// scalar `std::min(x, y)` (which keeps x unless y < x) is vmin(y, x).
inline double vmin(double a, double b) { return a < b ? a : b; }
inline double vfloor(double a) { return std::floor(a); }
inline bool cmp_lt(double a, double b) { return a < b; }
inline bool cmp_gt(double a, double b) { return a > b; }
inline bool vand(bool a, bool b) { return a && b; }
inline bool vor(bool a, bool b) { return a || b; }
inline double blend(bool mask, double a, double b) { return mask ? a : b; }

/// Whether any / every lane of a mask is true: the guards for skipping
/// arithmetic that every lane would blend away.
inline bool any(bool mask) { return mask; }
inline bool any(DVec mask) { return mask_bits(mask) != 0; }
inline bool all(bool mask) { return mask; }
inline bool all(DVec mask) { return mask_bits(mask) == (1u << kLanes) - 1; }

}  // namespace pdos::simd
