// The step driver of fluid::solve_batch, templated on the lane vector
// type (DESIGN.md §16): batch.cpp instantiates it on the TU's 4-lane
// simd::DVec, batch_avx512.cpp on simd::avx512::DVec. TUs compiled with
// different vector flags must not share an inline definition, or the
// linker may keep the AVX-512 copy for every caller; so the template
// touches the result vectors only through operator[], and their growth
// paths live in LaneBatch's out-of-line members in batch.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fluid/batch.hpp"
#include "fluid/kernels.hpp"
#include "fluid/solve_detail.hpp"

namespace pdos::fluid::detail {

/// The fields of one class in a (chunk, class) block of LaneBatch::state,
/// one vector of lanes each. The rate pass writes the arrival rate kX, its
/// reduction term kCx = count * x, and kInv = 1 / (rtt + queue delay).
enum BlockField : std::size_t {
  kW, kSsthresh, kAccum, kMdGate, kRtoUntil, kDelivered, kX, kCx, kInv,
  kFields
};

/// A batch between steps, laid out for `vl` lanes per vector.
///
/// Chunk-major class state: chunk c (lanes vl·c .. vl·c + vl-1) owns n
/// consecutive class blocks, each holding every field of one class as one
/// vector, so a step walks one chunk's blocks through a single pointer.
/// Pad lanes (l >= width) are inactive from the start and bit-frozen by
/// the kernels' skip mask; no pad *classes* are needed — the lane axis
/// provides the vector width, and the reduction tree matches the
/// class-vectorized one term for term because pad classes contribute
/// exact +0.0 there. The per-lane driver state (what fluid::solve keeps
/// in locals) sits in arrays of wpad lanes; mask arrays hold
/// simd::mask_true()/mask_false().
struct LaneBatch {
  LaneBatch(const FluidConfig& config, const std::vector<BatchLane>& lanes,
            const FluidControl& control, std::size_t vl);

  template <class V>
  void step_lanes();
  std::vector<FluidResult> finish();

  // Per-lane bookkeeping, out of line: samples due by `until`, the warmup
  // mark, the traced window, and a lane that reached its horizon.
  void sample_until(std::size_t l, Time until);
  void mark(std::size_t l);
  void trace(std::size_t l);
  void finish_lane(std::size_t l);

  /// Class i's field f in lane l.
  std::size_t cell(std::size_t i, std::size_t l, std::size_t f) const {
    return ((l / vl * n + i) * kFields + f) * vl + l % vl;
  }

  /// A per-lane array, every lane x.
  std::vector<double> lanes_of(double x) const {
    return std::vector<double>(wpad, x);
  }

  const FluidConfig& config;
  const FluidControl& control;
  const std::size_t n;      // classes
  const std::size_t width;  // lanes
  const std::size_t vl;     // lanes per vector
  const std::size_t wpad;   // lanes rounded up to whole vectors
  std::vector<double> state = std::vector<double>(wpad * n * kFields, 0.0);
  std::vector<double> rtt_c = std::vector<double>(n);
  std::vector<double> count_c = std::vector<double>(n);

  kernels::AimdConsts consts;
  const double capacity = config.capacity_pps();
  const double buffer = static_cast<double>(config.red.capacity);
  const double tcp_bytes = static_cast<double>(config.spacket);
  const Time horizon = control.horizon();
  const double ewma_log_keep =
      config.droptail ? 0.0 : std::log(1.0 - config.red.wq);
  const std::size_t num_bins = static_cast<std::size_t>(
      std::ceil(horizon / control.bin_width - kTimeEps));

  std::vector<double> t_a = lanes_of(0.0);
  std::vector<double> q_a = lanes_of(0.0);    // queue level, packets
  std::vector<double> avg_a = lanes_of(0.0);  // RED EWMA estimate
  std::vector<double> next_sample_a = lanes_of(0.0);
  std::vector<double> marked_a = lanes_of(simd::mask_false());
  std::vector<double> inactive_a = lanes_of(simd::mask_true());
  std::vector<double> early_a = lanes_of(0.0);
  std::vector<double> forced_a = lanes_of(0.0);
  // What the previous step's rate pass left for this one.
  std::vector<double> offered_a = lanes_of(0.0);
  std::vector<double> rto_expiry_a = lanes_of(kInf);
  // Pulse trains; baseline and pad lanes are unattacked.
  std::vector<double> period_a = lanes_of(1.0);
  std::vector<double> textent_a = lanes_of(0.0);
  std::vector<double> attacked_a = lanes_of(simd::mask_false());
  std::vector<double> atk_pps_a = lanes_of(0.0);
  std::vector<double> atk_bytes_a = lanes_of(0.0);
  std::vector<std::uint64_t> loss_events = std::vector<std::uint64_t>(wpad);
  std::vector<std::uint64_t> timeouts = std::vector<std::uint64_t>(wpad);
  std::vector<std::vector<double>> warmup_mark;
  std::vector<FluidResult> results;

  std::size_t active_count = 0;
  std::uint64_t steps = 0;  // iterations so far: every active lane steps
};

/// The rate pass of one chunk for the step that starts at (now,
/// queue_delay), one class block at a time: stores the class's arrival
/// rate, reciprocal RTT and count·x for the step kernel to read, sums
/// count·x into the offered-rate block tree (accumulator i & 3, combined
/// (a0+a1)+(a2+a3), the tree AimdBank builds across classes, whatever the
/// vector width), and takes the min of the pending (positive) RTO
/// expiries — order-independent, so bitwise equal to the single-point
/// scan.
template <class V>
struct RatePass {
  V now;
  V queue_delay;
  V access;
  V acc0 = V::splat(0.0);
  V acc1 = V::splat(0.0);
  V acc2 = V::splat(0.0);
  V acc3 = V::splat(0.0);
  V rto_expiry = V::splat(kInf);

  void add(std::size_t i, double rtt, double count, V w, V rto_until,
           double* block) {
    constexpr std::size_t vl = V::kLanes;
    const kernels::RateOut<V> r = kernels::rate_kernel(
        w, rto_until, now, V::splat(rtt), queue_delay, access);
    store(block + kX * vl, r.x);
    store(block + kInv * vl, r.inv_rtt);
    const V term = V::splat(count) * r.x;
    store(block + kCx * vl, term);
    switch (i % simd::kLanes) {
      case 0: acc0 = acc0 + term; break;
      case 1: acc1 = acc1 + term; break;
      case 2: acc2 = acc2 + term; break;
      default: acc3 = acc3 + term; break;
    }
    rto_expiry = vmin(rto_expiry, blend(cmp_gt(rto_until, V::splat(0.0)),
                                        rto_until, V::splat(kInf)));
  }
  V offered() const { return (acc0 + acc1) + (acc2 + acc3); }
};

/// Steps every lane to its horizon, V::kLanes (== vl) lanes per vector.
template <class V>
void LaneBatch::step_lanes() {
  using M = MaskOf<V>;
  constexpr std::size_t kVl = V::kLanes;
  constexpr std::size_t kBlock = kFields * kVl;
  const V vaccess = V::splat(consts.access_pps);
  const V vcapacity = V::splat(capacity);
  const V zero = V::splat(0.0);
  const V one = V::splat(1.0);
  const auto count_lanes = [](unsigned bits, std::uint64_t* per_lane) {
    for (; bits != 0; bits &= bits - 1) ++per_lane[__builtin_ctz(bits)];
  };

  // Prologue: the rates the first step reads, at t = 0 and an empty
  // queue. Every later rate pass runs fused into the step pass below.
  for (std::size_t lb = 0; lb < wpad; lb += kVl) {
    RatePass<V> rates{zero, zero, vaccess};
    double* block = state.data() + cell(0, lb, 0);
    for (std::size_t i = 0; i < n; ++i, block += kBlock) {
      rates.add(i, rtt_c[i], count_c[i], V::load(block + kW * kVl),
                V::load(block + kRtoUntil * kVl), block);
    }
    store(offered_a.data() + lb, rates.offered());
    store(rto_expiry_a.data() + lb, rates.rto_expiry);
  }

  while (active_count > 0) {
    ++steps;
    // One step of each chunk's lanes, each by its own clipped dt: the
    // head of fluid::solve's iteration lane-wide, then ONE pass over the
    // chunk's class blocks that steps each class and, while the block is
    // in registers, computes the rates and RTO horizon the next step
    // reads.
    for (std::size_t lb = 0; lb < wpad; lb += kVl) {
      if (all(M::load(inactive_a.data() + lb))) continue;
      // Per lane: occupancy/EWMA samples due by now, and the warmup mark.
      for (std::size_t l = lb; l < lb + kVl; ++l) {
        if (std::signbit(inactive_a[l])) continue;
        if (next_sample_a[l] <= t_a[l] + kTimeEps) sample_until(l, t_a[l]);
        if (!std::signbit(marked_a[l]) &&
            t_a[l] >= control.warmup - kTimeEps) {
          mark(l);
        }
      }

      const M inactive = M::load(inactive_a.data() + lb);
      const V t = V::load(t_a.data() + lb);
      const V q = V::load(q_a.data() + lb);
      const V avg = V::load(avg_a.data() + lb);
      const PulseShape<V> shape{V::load(period_a.data() + lb),
                                V::load(textent_a.data() + lb),
                                M::load(attacked_a.data() + lb)};
      const PulsePhase<V> phase = pulse_phase(shape, t);
      const V dt = vandnot(
          inactive,
          clip_step(t, config, phase.in_pulse, horizon, phase.next_boundary,
                    V::load(next_sample_a.data() + lb),
                    V::load(rto_expiry_a.data() + lb),
                    M::load(marked_a.data() + lb), control.warmup,
                    control.bin_width));

      // Queue/RED balance and drop accounting; finished lanes stay frozen.
      const V offered = V::load(offered_a.data() + lb);
      const V atk_rate =
          blend(phase.in_pulse, V::load(atk_pps_a.data() + lb), zero);
      const V total_in = offered + atk_rate;
      const QueueStep<V> qs = queue_step(config, ewma_log_keep, capacity,
                                         buffer, q, avg, total_in, dt);
      store(avg_a.data() + lb, blend(inactive, avg, qs.avg));
      const V early = V::load(early_a.data() + lb);
      store(early_a.data() + lb,
            blend(inactive, early, early + qs.p_early * total_in * dt));
      const V forced = V::load(forced_a.data() + lb);
      store(forced_a.data() + lb,
            blend(inactive, forced,
                  forced + qs.forced_frac * qs.admitted * dt));

      // Per lane: scatter the step's arrivals into its bin.
      const V atk_bytes = V::load(atk_bytes_a.data() + lb);
      double bin_at[kVl];
      double incoming[kVl];
      double attack[kVl];
      store(bin_at, (t + V::splat(0.5) * dt) / V::splat(control.bin_width));
      store(incoming, offered * dt * V::splat(tcp_bytes) +
                          atk_rate * dt * atk_bytes);
      store(attack, atk_rate * dt * atk_bytes);
      for (std::size_t j = 0; j < kVl; ++j) {
        if (std::signbit(inactive_a[lb + j])) continue;
        FluidResult& result = results[lb + j];
        const std::size_t bin =
            std::min(num_bins - 1, static_cast<std::size_t>(bin_at[j]));
        result.incoming_bins[bin] += incoming[j];
        result.attack_bins[bin] += attack[j];
      }

      kernels::StepIn<V> in;
      in.now = t;
      in.dt = dt;
      // Matches AimdBank::step's p_total composition exactly.
      in.p_total =
          vandnot(inactive, qs.p_early + (one - qs.p_early) * qs.forced_frac);
      in.queue_delay = q / vcapacity;
      in.inactive = inactive;
      in.omp_dt = (one - in.p_total) * dt;
      const V t_next = t + dt;
      const V q_next = blend(inactive, q, qs.q_next);
      store(t_a.data() + lb, t_next);
      store(q_a.data() + lb, q_next);

      RatePass<V> rates{t_next, q_next / vcapacity, vaccess};
      double* block = state.data() + cell(0, lb, 0);
      for (std::size_t i = 0; i < n; ++i, block += kBlock) {
        kernels::BankChunk<V> s;
        s.w = V::load(block + kW * kVl);
        s.ssthresh = V::load(block + kSsthresh * kVl);
        s.accum = V::load(block + kAccum * kVl);
        s.md_gate = V::load(block + kMdGate * kVl);
        s.rto_until = V::load(block + kRtoUntil * kVl);
        s.delivered = V::load(block + kDelivered * kVl);
        in.rtt = V::splat(rtt_c[i]);
        in.x = V::load(block + kX * kVl);
        in.cx = V::load(block + kCx * kVl);
        in.inv_rtt = V::load(block + kInv * kVl);
        const kernels::StepOut out = kernels::step_kernel(s, in, consts);
        store(block + kW * kVl, s.w);
        store(block + kAccum * kVl, s.accum);
        store(block + kDelivered * kVl, s.delivered);
        // The episode targets are the only writes to ssthresh, md_gate
        // and rto_until; a chunk without an episode left them untouched.
        if ((out.timeout_bits | out.loss_bits) != 0) {
          store(block + kSsthresh * kVl, s.ssthresh);
          store(block + kMdGate * kVl, s.md_gate);
          store(block + kRtoUntil * kVl, s.rto_until);
          count_lanes(out.timeout_bits, timeouts.data() + lb);
          count_lanes(out.loss_bits, loss_events.data() + lb);
        }
        rates.add(i, rtt_c[i], count_c[i], s.w, s.rto_until, block);
      }
      store(offered_a.data() + lb, rates.offered());
      store(rto_expiry_a.data() + lb, rates.rto_expiry);

      // Per lane: the traced window, and lanes that reached the horizon.
      for (std::size_t l = lb; l < lb + kVl; ++l) {
        if (std::signbit(inactive_a[l])) continue;
        if (control.traced_class >= 0) trace(l);
        if (!(t_a[l] < horizon - kTimeEps)) finish_lane(l);
      }
    }
  }
}

}  // namespace pdos::fluid::detail
