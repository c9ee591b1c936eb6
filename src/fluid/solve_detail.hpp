// Shared per-step driver math of the fluid solver: pulse phase, step
// clipping, and the RED EWMA / queue-balance update, written once as
// templates over the value type. The single-point driver (fluid.cpp
// solve) instantiates them on `double`, one lane; the lane-batched driver
// (batch_driver.hpp) on a vector, four or eight lanes at a time. Branches
// of the scalar schedule are masks and blends (a blend passes the picked
// operand's bits through untouched), every min keeps the scalar operand
// order, and each instantiation runs the same IEEE operation sequence per
// lane — which is what makes "each lane keeps its exact single-point step
// schedule" a bitwise statement rather than an approximation (DESIGN.md
// §16). Internal to src/fluid, and like kernels.hpp only for the TUs
// compiled with the fluid SIMD flags.
#pragma once

#include <cmath>
#include <limits>
#include <type_traits>

#include "fluid/fluid.hpp"
#include "util/simd.hpp"

namespace pdos::fluid::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();
// Below this window NewReno cannot raise three dupacks, so a loss episode
// costs a retransmission timeout instead of a fast recovery.
inline constexpr double kDupackFloor = 4.0;
// Boundary snap tolerance: steps shorter than this are merged into the
// discontinuity they precede.
inline constexpr double kTimeEps = 1e-9;

// Unqualified below: these find the double overloads, and argument-
// dependent lookup a vector backend's.
using simd::all;
using simd::any;
using simd::blend;
using simd::cmp_gt;
using simd::cmp_lt;
using simd::MaskOf;
using simd::vand;
using simd::vfloor;
using simd::vmin;
using simd::vor;

/// The constant x in every lane of V.
template <class V>
V bcast(double x) {
  if constexpr (std::is_same_v<V, double>) {
    return x;
  } else {
    return V::splat(x);
  }
}

/// libm exp, lane by lane, so every lane rounds exactly as a scalar call.
inline double lane_exp(double x) { return std::exp(x); }
template <class V>
V lane_exp(V x) {
  double v[V::kLanes];
  store(v, x);
  for (double& e : v) e = std::exp(e);
  return V::load(v);
}

/// RED early-drop probability for an average queue of `avg` packets (see
/// fluid::red_drop_probability, which is this on a double).
template <class V>
V red_drop_probability(const RedParams& p, V avg) {
  const V zero = bcast<V>(0.0);
  const MaskOf<V> below = cmp_lt(avg, bcast<V>(p.min_th));
  // Below min_th in every lane: nothing to ramp (the common light-load
  // case), so skip the ramp's divisions outright.
  if (all(below)) return zero;
  const V one = bcast<V>(1.0);
  const V max_th = bcast<V>(p.max_th);
  const V max_p = bcast<V>(p.max_p);
  const MaskOf<V> linear = cmp_lt(avg, max_th);
  MaskOf<V> ramp = linear;
  if (p.gentle) {
    ramp = vor(linear, cmp_lt(avg, bcast<V>(2.0 * p.max_th)));
  }
  // The linear ramp max_p (avg - min_th) / (max_th - min_th) and the
  // gentle one max_p + (1 - max_p)(avg - max_th) / max_th share one
  // division: each lane divides its own branch's operands.
  const V ratio =
      blend(linear, max_p * (avg - bcast<V>(p.min_th)),
                  (one - max_p) * (avg - max_th)) /
      blend(linear, bcast<V>(p.max_th - p.min_th), max_th);
  const V pb = blend(linear, ratio, max_p + ratio);
  // Expectation of ns-2's count-spread drops: uniformized gaps of mean
  // (1 + 1/p_b)/2 packets realize 2 p_b / (1 + p_b) drops per arrival.
  const V spread = vmin(bcast<V>(2.0) * pb / (one + pb), one);
  return blend(below, zero, blend(ramp, spread, one));
}

/// Per-lane pulse train: period textent + tspace, and which lanes are
/// attacked at all (an unattacked lane is never in a pulse).
template <class V>
struct PulseShape {
  V period;
  V textent;
  MaskOf<V> attacked;
};

/// Square-wave phase at time t: inside a pulse or not, and the next
/// discontinuity the step must not straddle.
template <class V>
struct PulsePhase {
  MaskOf<V> in_pulse;
  V next_boundary;
};

template <class V>
PulsePhase<V> pulse_phase(const PulseShape<V>& shape, V t) {
  // No lane attacked (a baseline solve): never in a pulse, no pulse edge.
  if (!any(shape.attacked)) return {shape.attacked, bcast<V>(kInf)};
  const V eps = bcast<V>(kTimeEps);
  const V k = vfloor((t + eps) / shape.period);
  const V pulse_start = k * shape.period;
  PulsePhase<V> ph;
  ph.in_pulse = vand(
      shape.attacked, cmp_lt(t, pulse_start + shape.textent - eps));
  ph.next_boundary = blend(
      shape.attacked,
      blend(ph.in_pulse, pulse_start + shape.textent,
                  (k + bcast<V>(1.0)) * shape.period),
      bcast<V>(kInf));
  return ph;
}

/// Step size for the current phase, clipped so no step straddles a pulse
/// edge, an RTO expiry, a sample instant, a bin edge, the warmup mark, or
/// the horizon.
template <class V>
V clip_step(V t, const FluidConfig& config, MaskOf<V> in_pulse,
            Time horizon, V next_boundary, V next_sample, V rto_expiry,
            MaskOf<V> marked, Time warmup, Time bin_width) {
  const V eps = bcast<V>(kTimeEps);
  const V width = bcast<V>(bin_width);
  V dt = blend(in_pulse, bcast<V>(config.dt_pulse),
                     bcast<V>(config.dt_idle));
  dt = vmin(bcast<V>(horizon) - t, dt);
  dt = vmin(next_boundary - t, dt);
  dt = vmin(next_sample - t, dt);
  dt = blend(cmp_gt(rto_expiry, t + eps),
                   vmin(rto_expiry - t, dt), dt);
  dt = blend(marked, dt, vmin(bcast<V>(warmup) - t, dt));
  const V next_edge =
      (vfloor(t / width + eps) + bcast<V>(1.0)) * width;
  dt = vmin(next_edge - t, dt);
  return blend(cmp_lt(dt, eps), eps, dt);
}

/// RED EWMA + queue balance over one step: updated average, early-drop
/// probability, admitted rate, next queue level, and the forced-drop
/// fraction the overflow converts into.
template <class V>
struct QueueStep {
  V avg;
  V p_early;
  V admitted;
  V q_next;
  V forced_frac;
};

template <class V>
QueueStep<V> queue_step(const FluidConfig& config, double ewma_log_keep,
                        double capacity, double buffer, V q, V avg,
                        V total_in, V dt) {
  const V zero = bcast<V>(0.0);
  const V cap = bcast<V>(buffer);
  QueueStep<V> s;
  if (!config.droptail) {
    // RED's estimator sees every arrival at the current backlog: n
    // arrivals move avg toward q by (1 - w_q)^n.
    avg = blend(
        cmp_gt(total_in, zero),
        q + (avg - q) *
                lane_exp(total_in * dt * bcast<V>(ewma_log_keep)),
        avg);
    s.p_early = red_drop_probability(config.red, avg);
  } else {
    s.p_early = zero;
  }
  s.avg = avg;
  // Queue balance over the step; overflow converts into a forced-drop
  // fraction applied uniformly to the step's admitted fluid.
  s.admitted = (bcast<V>(1.0) - s.p_early) * total_in;
  V q_next = q + (s.admitted - bcast<V>(capacity)) * dt;
  s.forced_frac = zero;
  const MaskOf<V> over = cmp_gt(q_next, cap);
  if (any(over)) {  // else every lane keeps q_next and no forced drop
    const V inflow = s.admitted * dt;
    s.forced_frac = blend(
        vand(over, cmp_gt(inflow, zero)),
        vmin((q_next - cap) / inflow, bcast<V>(1.0)), zero);
    q_next = blend(over, cap, q_next);
  }
  s.q_next = blend(cmp_lt(q_next, zero), zero, q_next);
  return s;
}

}  // namespace pdos::fluid::detail
