// Portable SIMD lane abstraction for the fluid tier (DESIGN.md §16).
//
// A `DVec` is a vector of doubles with its own mask type, in four backends:
//
//   AVX2     one __m256d, 4 lanes       (x86-64, -mavx2)
//   NEON     two float64x2_t, 4 lanes   (aarch64)
//   scalar   double[4]                  (otherwise, or PDOS_SIMD=OFF)
//   AVX-512  one __m512d, 8 lanes       (x86-64, -mavx512f -mavx512dq)
//
// The first three are `simd::DVec`, the TU's 4-lane vector, picked by its
// flags: the class axis of fluid::solve. 4 is also the fan-in of every
// cross-class reduction — a 4-accumulator block tree (acc[i & 3] +=
// term_i, then (a0+a1)+(a2+a3)) — so no backend reassociates a sum.
// AVX-512 only serves fluid::solve_batch's lane axis, whose lanes are
// independent grid points, from the one TU built with its flags
// (src/fluid/batch_avx512.cpp). Every op maps to a single IEEE-754
// binary64 operation per lane, and the fluid TUs forbid mul+add
// contraction (-ffp-contract=off), so all four give the same bits.
//
// Masks come from cmp_*: all-ones/all-zeros lanes of a DVec in the 4-lane
// backends, a __mmask8 in AVX-512. blend() selects whole lanes, so the
// chosen value's bits survive untouched. Mask arrays in memory hold
// mask_true()/mask_false(); Mask::load reads them by sign bit.
//
// Each backend has its own namespace (the TU's 4-lane one inline in
// pdos::simd), so TUs built with different vector flags never share an
// inline definition. Templates on the vector type V call these functions
// unqualified — argument-dependent lookup finds a backend's, using-
// declarations the `double` overloads at the bottom — and build vectors
// with V::splat and V::load. PDOS_SIMD=OFF defines PDOS_SIMD_DISABLE,
// which forces the scalar backend whatever the ambient flags.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

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

/// Width of the class axis in every build; also the block-tree fan-in of
/// every cross-class reduction in the fluid tier.
inline constexpr std::size_t kLanes = 4;

#if defined(PDOS_SIMD_BACKEND_AVX2)

inline namespace avx2 {

inline constexpr const char* kBackendName = "avx2";

struct DVec {
  static constexpr std::size_t kLanes = 4;
  __m256d v;
  static DVec splat(double x) { return {_mm256_set1_pd(x)}; }
  static DVec load(const double* p) { return {_mm256_loadu_pd(p)}; }
};

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
/// One bit per lane, lane 0 in bit 0.
inline unsigned mask_bits(DVec mask) {
  return static_cast<unsigned>(_mm256_movemask_pd(mask.v));
}

}  // namespace avx2

#elif defined(PDOS_SIMD_BACKEND_NEON)

inline namespace neon {

inline constexpr const char* kBackendName = "neon";

struct DVec {
  static constexpr std::size_t kLanes = 4;
  float64x2_t lo;
  float64x2_t hi;
  static DVec splat(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
  static DVec load(const double* p) {
    return {vld1q_f64(p), vld1q_f64(p + 2)};
  }
};

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

}  // namespace neon

#else  // PDOS_SIMD_BACKEND_SCALAR

inline namespace scalar {

inline constexpr const char* kBackendName = "scalar";

struct DVec {
  static constexpr std::size_t kLanes = 4;
  double v[kLanes];
  static DVec splat(double x) { return {{x, x, x, x}}; }
  static DVec load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
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
/// f(a.v[i], b.v[i]) in every lane i.
template <class F>
DVec lanewise(DVec a, DVec b, F f) {
  DVec r;
  for (std::size_t i = 0; i < DVec::kLanes; ++i) r.v[i] = f(a.v[i], b.v[i]);
  return r;
}
/// A compare as a mask: all-ones lanes where it holds, all-zeros elsewhere.
template <class F>
DVec compare(DVec a, DVec b, F f) {
  return lanewise(a, b, [f](double x, double y) {
    return from_bits(f(x, y) ? ~0ull : 0ull);
  });
}
/// f on the lanes' bit patterns.
template <class F>
DVec bitwise(DVec a, DVec b, F f) {
  return lanewise(a, b, [f](double x, double y) {
    return from_bits(f(bits(x), bits(y)));
  });
}
}  // namespace detail

inline void store(double* p, DVec a) { std::memcpy(p, a.v, sizeof(a.v)); }

inline DVec operator+(DVec a, DVec b) {
  return detail::lanewise(a, b, [](double x, double y) { return x + y; });
}
inline DVec operator-(DVec a, DVec b) {
  return detail::lanewise(a, b, [](double x, double y) { return x - y; });
}
inline DVec operator*(DVec a, DVec b) {
  return detail::lanewise(a, b, [](double x, double y) { return x * y; });
}
inline DVec operator/(DVec a, DVec b) {
  return detail::lanewise(a, b, [](double x, double y) { return x / y; });
}
// min/max mirror the SSE/AVX semantics (second operand wins on equality or
// NaN), which for the fluid kernels' finite inputs is plain min/max.
inline DVec vmin(DVec a, DVec b) {
  return detail::lanewise(a, b,
                          [](double x, double y) { return x < y ? x : y; });
}
inline DVec vmax(DVec a, DVec b) {
  return detail::lanewise(a, b,
                          [](double x, double y) { return x > y ? x : y; });
}
inline DVec vfloor(DVec a) {
  return detail::lanewise(a, a, [](double x, double) { return std::floor(x); });
}

inline DVec cmp_lt(DVec a, DVec b) {
  return detail::compare(a, b, [](double x, double y) { return x < y; });
}
inline DVec cmp_ge(DVec a, DVec b) {
  return detail::compare(a, b, [](double x, double y) { return x >= y; });
}
inline DVec cmp_gt(DVec a, DVec b) {
  return detail::compare(a, b, [](double x, double y) { return x > y; });
}

inline DVec vand(DVec a, DVec b) {
  return detail::bitwise(
      a, b, [](std::uint64_t x, std::uint64_t y) { return x & y; });
}
inline DVec vor(DVec a, DVec b) {
  return detail::bitwise(
      a, b, [](std::uint64_t x, std::uint64_t y) { return x | y; });
}
inline DVec vandnot(DVec mask, DVec a) {
  return detail::bitwise(
      mask, a, [](std::uint64_t m, std::uint64_t x) { return ~m & x; });
}
inline DVec blend(DVec mask, DVec a, DVec b) {
  DVec r;
  for (std::size_t i = 0; i < DVec::kLanes; ++i) {
    // blendv semantics: the mask's sign bit picks the lane.
    r.v[i] = (detail::bits(mask.v[i]) >> 63) != 0 ? a.v[i] : b.v[i];
  }
  return r;
}
inline unsigned mask_bits(DVec mask) {
  unsigned bits = 0;
  for (std::size_t i = 0; i < DVec::kLanes; ++i) {
    bits |= static_cast<unsigned>(detail::bits(mask.v[i]) >> 63) << i;
  }
  return bits;
}

}  // namespace scalar

#endif

/// Whether any / every lane of a 4-lane mask is true: the guards for
/// skipping arithmetic that every lane would blend away.
inline bool any(DVec mask) { return mask_bits(mask) != 0; }
inline bool all(DVec mask) {
  return mask_bits(mask) == (1u << DVec::kLanes) - 1;
}

#if !defined(PDOS_SIMD_DISABLE) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)
#define PDOS_SIMD_BACKEND_AVX512 1

/// The 8-lane lane axis of fluid::solve_batch. Compares yield the CPU's own
/// __mmask8 (bit i = lane i), and masked-off lanes keep their bits through
/// mask_blend/maskz moves exactly as through the 4-lane blends.
namespace avx512 {

inline constexpr const char* kBackendName = "avx512";
inline constexpr __mmask8 kAllLanes = 0xFF;

struct Mask {
  __mmask8 k;
  /// The sign bits of p[0..7].
  static Mask load(const double* p) {
    return {_mm512_movepi64_mask(_mm512_castpd_si512(_mm512_loadu_pd(p)))};
  }
};

struct DVec {
  static constexpr std::size_t kLanes = 8;
  __m512d v;
  static DVec splat(double x) { return {_mm512_set1_pd(x)}; }
  static DVec load(const double* p) { return {_mm512_loadu_pd(p)}; }
};

inline void store(double* p, DVec a) { _mm512_storeu_pd(p, a.v); }

inline DVec operator+(DVec a, DVec b) { return {_mm512_add_pd(a.v, b.v)}; }
inline DVec operator-(DVec a, DVec b) { return {_mm512_sub_pd(a.v, b.v)}; }
inline DVec operator*(DVec a, DVec b) { return {_mm512_mul_pd(a.v, b.v)}; }
inline DVec operator/(DVec a, DVec b) { return {_mm512_div_pd(a.v, b.v)}; }
// The zero-masking forms with every lane selected: GCC 12 at -O3 warns
// that the unmasked _mm512_min_pd/_max_pd/_roundscale_pd's pass-through
// operand "may be used uninitialized". Same instruction, same bits.
inline DVec vmin(DVec a, DVec b) {
  return {_mm512_maskz_min_pd(kAllLanes, a.v, b.v)};
}
inline DVec vmax(DVec a, DVec b) {
  return {_mm512_maskz_max_pd(kAllLanes, a.v, b.v)};
}
inline DVec vfloor(DVec a) {
  return {_mm512_maskz_roundscale_pd(
      kAllLanes, a.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
}

inline Mask cmp_lt(DVec a, DVec b) {
  return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ)};
}
inline Mask cmp_ge(DVec a, DVec b) {
  return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ)};
}
inline Mask cmp_gt(DVec a, DVec b) {
  return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ)};
}

inline Mask vand(Mask a, Mask b) { return {static_cast<__mmask8>(a.k & b.k)}; }
inline Mask vor(Mask a, Mask b) { return {static_cast<__mmask8>(a.k | b.k)}; }
inline Mask vandnot(Mask mask, Mask a) {
  return {static_cast<__mmask8>(~mask.k & a.k)};
}
/// Lanes of `a` where mask is false; +0.0 where mask is true.
inline DVec vandnot(Mask mask, DVec a) {
  return {_mm512_maskz_mov_pd(static_cast<__mmask8>(~mask.k), a.v)};
}
/// Per lane: mask ? a : b.
inline DVec blend(Mask mask, DVec a, DVec b) {
  return {_mm512_mask_blend_pd(mask.k, b.v, a.v)};
}
inline unsigned mask_bits(Mask mask) { return mask.k; }
inline bool any(Mask mask) { return mask.k != 0; }
inline bool all(Mask mask) { return mask.k == kAllLanes; }

}  // namespace avx512

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
// lane as `double` and a vector's worth as a DVec from one source. Each
// overload is the scalar statement its vector twin computes per lane;
// vmin(a, b) is `a < b ? a : b`, the operand order _mm256_min_pd picks
// by, so the scalar `std::min(x, y)` (which keeps x unless y < x) is
// vmin(y, x).
inline double vmin(double a, double b) { return a < b ? a : b; }
inline double vfloor(double a) { return std::floor(a); }
inline bool cmp_lt(double a, double b) { return a < b; }
inline bool cmp_gt(double a, double b) { return a > b; }
inline bool vand(bool a, bool b) { return a && b; }
inline bool vor(bool a, bool b) { return a || b; }
inline double blend(bool mask, double a, double b) { return mask ? a : b; }
inline bool any(bool mask) { return mask; }
inline bool all(bool mask) { return mask; }

/// Mask type of V: bool for double, the backend's mask for a vector.
template <class V>
using MaskOf = decltype(cmp_lt(std::declval<V>(), std::declval<V>()));

}  // namespace pdos::simd
