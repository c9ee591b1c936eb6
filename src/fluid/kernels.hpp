// Width-agnostic SIMD kernels for the fluid AIMD bank (DESIGN.md §16).
//
// The per-element arithmetic of AimdBank::refresh_rates / AimdBank::step
// lives here as masked kernels templated on the vector type V, consumed
// by two callers with orthogonal vectorization axes:
//
//   * AimdBank (fluid.cpp): vectorizes ACROSS CLASSES of one solve, on the
//     4-lane simd::DVec — step parameters (now, dt, p_total, queue_delay)
//     are broadcast, rtt/count vary per lane.
//   * solve_batch (batch_driver.hpp): vectorizes ACROSS LANES (independent
//     grid points), 4 or 8 to a vector — rtt/count are broadcast per
//     class, step parameters vary per lane.
//
// Both instantiate the exact same expression graph, so any element's
// arithmetic sequence is IEEE-identical whichever axis and width it was
// vectorized along; that is the whole bit-identity contract between
// single-point and batched fluid solves. Branches of the original scalar
// loops become whole-lane masks and blends: a blend picks one operand's
// unmodified bit pattern, so masked-off elements keep bit-frozen state
// exactly as the scalar `continue` did.
//
// Only for the pdos_fluid TUs compiled with the fluid SIMD flags. The
// kernels only run on vectors: argument-dependent lookup finds every simd
// function they call.
#pragma once

#include "util/simd.hpp"

namespace pdos::fluid::kernels {

using simd::MaskOf;

/// Scalar AIMD constants shared by every element of a bank.
struct AimdConsts {
  double access_pps = 0.0;   // per-flow rate cap, pkts/s
  double a = 1.0;            // AIMD additive increase, segments per d RTTs
  double b = 0.5;            // AIMD multiplicative decrease factor
  double d = 1.0;            // RTTs per congestion-avoidance round
  double a_over_d = 1.0;     // a / d, divided once at setup (hot path)
  double ss_log = 0.0;       // ln(1 + 1/d): slow-start growth constant
  double max_cwnd = 10000.0;
  double rto_min = 1.0;
  double dupack_floor = 4.0;
};

/// One vector's worth of mutable bank state, loaded by the caller.
template <class V>
struct BankChunk {
  V w;
  V ssthresh;
  V accum;
  V md_gate;
  V rto_until;
  V delivered;
};

/// Per-element step inputs. `inactive` is an extra caller-supplied skip
/// mask (all-ones lanes are bit-frozen); the kernel ors it with the RTO
/// freeze mask it derives itself.
template <class V>
struct StepIn {
  V now;
  V dt;
  V p_total;
  V queue_delay;
  MaskOf<V> inactive;
  V omp_dt;   // (1 - p_total) * dt, precomputed once per step
  V rtt;      // propagation RTT per element
  V x;        // arrival rate per element, from rate_kernel
  V cx;       // count * x, the rate pass's reduction term, reused here
  V inv_rtt;  // 1 / (rtt + queue_delay), from the same rate_kernel call
};

/// Episode masks raised by one step_kernel call (simd::mask_bits layout).
struct StepOut {
  unsigned timeout_bits = 0;
  unsigned loss_bits = 0;
};

/// Arrival rate plus the effective-RTT reciprocal it divides by.
template <class V>
struct RateOut {
  V x;        // [now >= rto_until] * min(w * inv_rtt, access)
  V inv_rtt;  // 1 / (rtt + queue_delay)
};

/// Arrival rate x_i = [now >= rto_until] * min(w / (rtt + qd), access),
/// computed as w * (1/(rtt + qd)) so the one reciprocal per chunk also
/// serves step_kernel's dt/RTT conversion — the only division in the
/// whole chunk-step. The andnot realizes the scalar path's
/// `active * min(...)` exactly: both produce +0.0 for frozen elements
/// (x is never negative). Pad elements carry rtt = +inf, so
/// inv_rtt = +0.0 and their rate and window motion stay exactly zero.
template <class V>
RateOut<V> rate_kernel(V w, V rto_until, V now, V rtt, V queue_delay,
                       V access) {
  const MaskOf<V> frozen = cmp_lt(now, rto_until);
  RateOut<V> out;
  out.inv_rtt = V::splat(1.0) / (rtt + queue_delay);
  out.x = vandnot(frozen, vmin(w * out.inv_rtt, access));
  return out;
}

/// Advance one vector of elements by its per-element dt: delivered accounting,
/// loss-pressure integration/decay, NewReno episode (RTO freeze below the
/// dupack floor, multiplicative decrease above it), and slow-start/AIMD
/// growth — a masked transcription of the scalar per-class loop, same
/// operation order per element.
template <class V>
StepOut step_kernel(BankChunk<V>& s, const StepIn<V>& in,
                    const AimdConsts& c) {
  const V zero = V::splat(0.0);
  const V one = V::splat(1.0);
  const MaskOf<V> frozen = cmp_lt(in.now, s.rto_until);
  const MaskOf<V> skip = vor(frozen, in.inactive);
  const V dt_rtts = in.dt * in.inv_rtt;

  // delivered += (count * x) * ((1 - p_total) * dt); adding a masked
  // +0.0 leaves skipped elements bit-identical (delivered is never
  // -0.0). Both factors arrive precomputed: cx from the rate pass's
  // reduction term, omp_dt once per step.
  s.delivered = s.delivered + vandnot(skip, in.cx * in.omp_dt);

  // Loss pressure: integrate while the path drops, decay over ~2 RTTs
  // when it runs clean. When the chunk carries no drop probability and
  // no residual pressure the blend chain resolves to s.accum in every
  // lane, so skip the integration arithmetic outright — the episode
  // masks below are then all-false too (accum < 1 everywhere), which is
  // the common idle-phase case.
  const MaskOf<V> pressure =
      vor(cmp_gt(in.p_total, zero), cmp_gt(s.accum, zero));
  V accum_next = s.accum;
  unsigned episode_bits = 0;
  MaskOf<V> episode{};
  if (mask_bits(pressure) != 0) {
    const V grow_acc = s.accum + (in.p_total * in.x) * in.dt;
    const V decay_acc =
        s.accum * (one - vmin(one, V::splat(0.5) * dt_rtts));
    accum_next = blend(cmp_gt(in.p_total, zero), grow_acc,
                       blend(cmp_gt(s.accum, zero), decay_acc,
                             s.accum));
    accum_next = blend(skip, s.accum, accum_next);

    // Episode: a whole packet of pressure past the decrease gate.
    episode = vandnot(skip, vand(cmp_ge(accum_next, one),
                                 cmp_ge(in.now, s.md_gate)));
    episode_bits = mask_bits(episode);
  }

  // Growth on non-episode steps: slow start below ssthresh, linear AIMD
  // increase above, clamped to max_cwnd. The blend picks the slope
  // factor, not the summed result, so each element's arithmetic is
  // exactly w + slope*dt_rtts either way — same bits as computing both
  // branches in full.
  const V slope = blend(cmp_lt(s.w, s.ssthresh), s.w * V::splat(c.ss_log),
                        V::splat(c.a_over_d));
  const V capped = vmin(s.w + slope * dt_rtts, V::splat(c.max_cwnd));

  StepOut out;
  if (episode_bits == 0) {
    // No episode anywhere in the chunk: every episode-conditional blend
    // below would pick its fallback operand bit-for-bit, so commit the
    // growth result directly and leave ssthresh/md_gate/rto_until
    // untouched — identical state, none of the episode-target math.
    s.w = blend(skip, s.w, capped);
    s.accum = accum_next;
    return out;
  }

  // Below the dupack floor the episode is an RTO freeze; otherwise one
  // NewReno multiplicative decrease.
  const MaskOf<V> to =
      vand(episode, cmp_lt(s.w, V::splat(c.dupack_floor)));
  const MaskOf<V> md = vandnot(to, episode);

  const V two = V::splat(2.0);
  const V rtt_eff = in.rtt + in.queue_delay;
  const V ssthresh_to = vmax(two, V::splat(0.5) * s.w);
  const V rto_to = in.now + vmax(V::splat(c.rto_min), two * rtt_eff);
  const V ssthresh_md = vmax(two, V::splat(c.b) * s.w);
  const V w_md = vmax(one, V::splat(c.b) * s.w);
  const V gate_md = in.now + rtt_eff;

  s.w = blend(skip, s.w,
              blend(episode, blend(to, one, w_md), capped));
  s.ssthresh = blend(episode, blend(to, ssthresh_to, ssthresh_md),
                     s.ssthresh);
  s.md_gate = blend(episode, blend(to, rto_to, gate_md), s.md_gate);
  s.rto_until = blend(to, rto_to, s.rto_until);
  s.accum = blend(episode, zero, accum_next);

  out.timeout_bits = mask_bits(to);
  out.loss_bits = mask_bits(md);
  return out;
}

/// Final combine of a 4-accumulator block-tree sum: (a0+a1)+(a2+a3).
/// Every cross-class reduction uses accumulators indexed i & 3 and this
/// combine, in the class-vectorized and lane-vectorized paths alike, so
/// the summation tree never depends on how the loop was vectorized.
inline double tree_total(simd::DVec acc) {
  double a[simd::kLanes];
  store(a, acc);
  return (a[0] + a[1]) + (a[2] + a[3]);
}

}  // namespace pdos::fluid::kernels
