#include "fluid/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "fluid/kernels.hpp"
#include "fluid/solve_detail.hpp"
#include "util/assert.hpp"

namespace pdos::fluid {

namespace {

using detail::kInf;
using detail::kTimeEps;
using simd::DVec;
using simd::kLanes;

// Offsets of the class state inside one (chunk, class) block: each field
// is one DVec, four lanes of that class.
constexpr std::size_t kW = 0 * kLanes;
constexpr std::size_t kSsthresh = 1 * kLanes;
constexpr std::size_t kAccum = 2 * kLanes;
constexpr std::size_t kMdGate = 3 * kLanes;
constexpr std::size_t kRtoUntil = 4 * kLanes;
constexpr std::size_t kDelivered = 5 * kLanes;
constexpr std::size_t kX = 6 * kLanes;    // arrival rate, from the rate pass
constexpr std::size_t kCx = 7 * kLanes;   // count * x, its reduction term
constexpr std::size_t kInv = 8 * kLanes;  // 1 / (rtt + queue delay)
constexpr std::size_t kBlock = 9 * kLanes;

/// Per-lane read of a mask array entry (blend picks by the same sign bit).
bool lane_set(double mask) { return std::signbit(mask); }

/// The rate pass of one chunk for the step that starts at (now,
/// queue_delay), one class block at a time: stores the class's arrival
/// rate, reciprocal RTT and count·x for the step kernel to read, sums
/// count·x into the offered-rate block tree (accumulator i & 3, combined
/// (a0+a1)+(a2+a3), the tree AimdBank builds across classes), and takes
/// the min of the pending (positive) RTO expiries — order-independent, so
/// bitwise equal to the single-point scan.
struct RatePass {
  DVec now;
  DVec queue_delay;
  DVec access;
  DVec acc0 = simd::zero();
  DVec acc1 = simd::zero();
  DVec acc2 = simd::zero();
  DVec acc3 = simd::zero();
  DVec rto_expiry = simd::splat(kInf);

  void add(std::size_t i, double rtt, double count, DVec w, DVec rto_until,
           double* block) {
    const kernels::RateOut r = kernels::rate_kernel(
        w, rto_until, now, simd::splat(rtt), queue_delay, access);
    simd::store(block + kX, r.x);
    simd::store(block + kInv, r.inv_rtt);
    const DVec term = simd::splat(count) * r.x;
    simd::store(block + kCx, term);
    switch (i & 3) {
      case 0: acc0 = acc0 + term; break;
      case 1: acc1 = acc1 + term; break;
      case 2: acc2 = acc2 + term; break;
      default: acc3 = acc3 + term; break;
    }
    rto_expiry = simd::vmin(
        rto_expiry, simd::blend(simd::cmp_gt(rto_until, simd::zero()),
                                rto_until, simd::splat(kInf)));
  }
  DVec offered() const { return (acc0 + acc1) + (acc2 + acc3); }
};

}  // namespace

std::vector<FluidResult> solve_batch(const FluidConfig& config,
                                     const std::vector<BatchLane>& lanes,
                                     const FluidControl& control) {
  config.validate();
  PDOS_REQUIRE(!lanes.empty(), "solve_batch: need at least one lane");
  control.validate(config.classes.size());
  for (const BatchLane& lane : lanes) {
    if (lane.attack) lane.attack->validate();
  }

  const std::size_t n = config.classes.size();
  const std::size_t width = lanes.size();
  const std::size_t wpad = (width + kLanes - 1) & ~(kLanes - 1);

  // Chunk-major class state: chunk c (lanes 4c..4c+3) owns n consecutive
  // class blocks, each holding every field of one class as one DVec
  // (offsets kW..kInv). A step walks one chunk's blocks front to back
  // through a single pointer. Pad lanes (l >= width) are inactive from
  // the start and bit-frozen by the kernels' skip mask; unlike the
  // single-point path no pad *classes* are needed — the lane axis
  // provides the vector width, and the reduction tree (accumulator i & 3,
  // combine (a0+a1)+(a2+a3)) matches the class-vectorized one term for
  // term because pad classes contribute exact +0.0 there.
  std::vector<double> state(wpad / kLanes * n * kBlock, 0.0);
  for (std::size_t b = 0; b < state.size(); b += kBlock) {
    std::fill_n(state.data() + b + kW, kLanes, 1.0);
    std::fill_n(state.data() + b + kSsthresh, kLanes,
                config.initial_ssthresh);
  }
  // Class i's field f in lane l.
  const auto cell = [&](std::size_t i, std::size_t l, std::size_t f) {
    return (l / kLanes * n + i) * kBlock + f + l % kLanes;
  };

  std::vector<double> rtt_c(n), count_c(n);
  for (std::size_t i = 0; i < n; ++i) {
    rtt_c[i] = config.classes[i].rtt;
    count_c[i] = config.classes[i].count;
  }

  // Per-lane driver state, four lanes to a DVec: everything fluid::solve
  // keeps in locals. Mask arrays hold simd::mask_true()/mask_false().
  std::vector<double> t_a(wpad, 0.0);
  std::vector<double> q_a(wpad, 0.0);    // queue level, packets
  std::vector<double> avg_a(wpad, 0.0);  // RED EWMA estimate
  std::vector<double> next_sample_a(wpad, 0.0);
  std::vector<double> marked_a(wpad, simd::mask_false());
  std::vector<double> inactive_a(wpad, simd::mask_true());
  std::vector<double> early_a(wpad, 0.0);
  std::vector<double> forced_a(wpad, 0.0);
  // What the previous step's rate pass left for this one.
  std::vector<double> offered_a(wpad, 0.0);
  std::vector<double> rto_expiry_a(wpad, kInf);
  // Pulse trains; baseline and pad lanes are unattacked.
  std::vector<double> period_a(wpad, 1.0);
  std::vector<double> textent_a(wpad, 0.0);
  std::vector<double> attacked_a(wpad, simd::mask_false());
  std::vector<double> atk_pps_a(wpad, 0.0);
  std::vector<double> atk_bytes_a(wpad, 0.0);
  std::vector<std::uint64_t> loss_events(wpad, 0);
  std::vector<std::uint64_t> timeouts(wpad, 0);
  // Sized by resize(), not the count constructor: at -O3 GCC 12 cannot
  // bound `width` on the constructor path and warns -Walloc-size-larger-than.
  std::vector<std::vector<double>> warmup_mark;
  warmup_mark.resize(width);
  std::vector<FluidResult> results(width);

  kernels::AimdConsts consts;
  consts.access_pps =
      config.access / (8.0 * static_cast<double>(config.spacket));
  consts.a = config.aimd.a;
  consts.b = config.aimd.b;
  consts.d = static_cast<double>(config.aimd.d);
  consts.a_over_d = config.aimd.a / static_cast<double>(config.aimd.d);
  consts.ss_log =
      std::log(1.0 + 1.0 / static_cast<double>(config.aimd.d));
  consts.max_cwnd = config.max_cwnd;
  consts.rto_min = config.rto_min;
  consts.dupack_floor = detail::kDupackFloor;

  const double capacity = config.capacity_pps();
  const double buffer = static_cast<double>(config.red.capacity);
  const double tcp_bytes = static_cast<double>(config.spacket);
  const Time horizon = control.horizon();
  const double ewma_log_keep =
      config.droptail ? 0.0 : std::log(1.0 - config.red.wq);
  const std::size_t num_bins = static_cast<std::size_t>(
      std::ceil(horizon / control.bin_width - kTimeEps));
  const DVec vaccess = simd::splat(consts.access_pps);
  const DVec vcapacity = simd::splat(capacity);
  const DVec one = simd::splat(1.0);

  std::size_t active_count = 0;
  std::uint64_t steps = 0;  // iterations so far: every active lane steps

  const auto sample_until = [&](std::size_t l, Time until) {
    FluidResult& result = results[l];
    while (next_sample_a[l] <= until + kTimeEps) {
      result.queue_occupancy.push_back(q_a[l]);
      result.red_avg_samples.push_back(config.droptail ? 0.0 : avg_a[l]);
      next_sample_a[l] += control.bin_width;
    }
  };
  const auto mark = [&](std::size_t l) {
    warmup_mark[l].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      warmup_mark[l][i] = state[cell(i, l, kDelivered)];
    }
    marked_a[l] = simd::mask_true();
  };
  const auto finish_lane = [&](std::size_t l) {
    sample_until(l, horizon);
    if (!lane_set(marked_a[l])) mark(l);
    inactive_a[l] = simd::mask_true();
    results[l].steps = steps;
    --active_count;
  };

  for (std::size_t l = 0; l < width; ++l) {
    if (lanes[l].attack) {
      const FluidAttack& attack = *lanes[l].attack;
      period_a[l] = attack.period();
      textent_a[l] = attack.textent;
      attacked_a[l] = simd::mask_true();
      atk_pps_a[l] =
          attack.rattack / (8.0 * static_cast<double>(attack.packet_bytes));
      atk_bytes_a[l] = static_cast<double>(attack.packet_bytes);
    }
    FluidResult& result = results[l];
    result.bin_width = control.bin_width;
    result.incoming_bins.assign(num_bins, 0.0);
    result.attack_bins.assign(num_bins, 0.0);
    result.queue_occupancy.reserve(num_bins + 2);
    result.red_avg_samples.reserve(num_bins + 2);
    if (control.warmup == 0.0) {
      warmup_mark[l].assign(n, 0.0);
      marked_a[l] = simd::mask_true();
    }
    inactive_a[l] = simd::mask_false();
    ++active_count;
    if (!(t_a[l] < horizon - kTimeEps)) finish_lane(l);
  }

  // Prologue: the rates the first step reads, at t = 0 and an empty
  // queue. Every later rate pass runs fused into the step pass below.
  for (std::size_t lb = 0; lb < wpad; lb += kLanes) {
    RatePass rates{simd::zero(), simd::zero(), vaccess};
    double* block = state.data() + cell(0, lb, 0);
    for (std::size_t i = 0; i < n; ++i, block += kBlock) {
      rates.add(i, rtt_c[i], count_c[i], simd::load(block + kW),
                simd::load(block + kRtoUntil), block);
    }
    simd::store(offered_a.data() + lb, rates.offered());
    simd::store(rto_expiry_a.data() + lb, rates.rto_expiry);
  }

  while (active_count > 0) {
    ++steps;
    // One step of each chunk's four lanes, each by its own clipped dt:
    // the head of fluid::solve's iteration lane-wide, then ONE pass over
    // the chunk's class blocks that steps each class and, while the block
    // is in registers, computes the rates and RTO horizon the next step
    // reads.
    for (std::size_t lb = 0; lb < wpad; lb += kLanes) {
      if (simd::mask_bits(simd::load(inactive_a.data() + lb)) == 0xF) {
        continue;
      }
      // Per lane: occupancy/EWMA samples due by now, and the warmup mark.
      for (std::size_t l = lb; l < lb + kLanes; ++l) {
        if (lane_set(inactive_a[l])) continue;
        sample_until(l, t_a[l]);
        if (!lane_set(marked_a[l]) && t_a[l] >= control.warmup - kTimeEps) {
          mark(l);
        }
      }

      const DVec inactive = simd::load(inactive_a.data() + lb);
      const DVec t = simd::load(t_a.data() + lb);
      const DVec q = simd::load(q_a.data() + lb);
      const DVec avg = simd::load(avg_a.data() + lb);
      const detail::PulseShape<DVec> shape{
          simd::load(period_a.data() + lb),
          simd::load(textent_a.data() + lb),
          simd::load(attacked_a.data() + lb)};
      const detail::PulsePhase<DVec> phase = detail::pulse_phase(shape, t);
      const DVec dt = simd::vandnot(
          inactive,
          detail::clip_step(t, config, phase.in_pulse, horizon,
                            phase.next_boundary,
                            simd::load(next_sample_a.data() + lb),
                            simd::load(rto_expiry_a.data() + lb),
                            simd::load(marked_a.data() + lb),
                            control.warmup, control.bin_width));

      // Queue/RED balance and drop accounting; finished lanes stay frozen.
      const DVec offered = simd::load(offered_a.data() + lb);
      const DVec atk_rate = simd::blend(
          phase.in_pulse, simd::load(atk_pps_a.data() + lb), simd::zero());
      const DVec total_in = offered + atk_rate;
      const detail::QueueStep<DVec> qs = detail::queue_step(
          config, ewma_log_keep, capacity, buffer, q, avg, total_in, dt);
      simd::store(avg_a.data() + lb, simd::blend(inactive, avg, qs.avg));
      const DVec early = simd::load(early_a.data() + lb);
      simd::store(early_a.data() + lb,
                  simd::blend(inactive, early,
                              early + qs.p_early * total_in * dt));
      const DVec forced = simd::load(forced_a.data() + lb);
      simd::store(forced_a.data() + lb,
                  simd::blend(inactive, forced,
                              forced + qs.forced_frac * qs.admitted * dt));

      // Per lane: scatter the step's arrivals into its bin.
      const DVec atk_bytes = simd::load(atk_bytes_a.data() + lb);
      double bin_at[kLanes];
      double incoming[kLanes];
      double attack[kLanes];
      simd::store(bin_at, (t + simd::splat(0.5) * dt) /
                              simd::splat(control.bin_width));
      simd::store(incoming, offered * dt * simd::splat(tcp_bytes) +
                                atk_rate * dt * atk_bytes);
      simd::store(attack, atk_rate * dt * atk_bytes);
      for (std::size_t j = 0; j < kLanes; ++j) {
        if (lane_set(inactive_a[lb + j])) continue;
        FluidResult& result = results[lb + j];
        const std::size_t bin =
            std::min(num_bins - 1, static_cast<std::size_t>(bin_at[j]));
        result.incoming_bins[bin] += incoming[j];
        result.attack_bins[bin] += attack[j];
      }

      kernels::StepIn in;
      in.now = t;
      in.dt = dt;
      // Matches AimdBank::step's p_total composition exactly.
      in.p_total = simd::vandnot(
          inactive, qs.p_early + (one - qs.p_early) * qs.forced_frac);
      in.queue_delay = q / vcapacity;
      in.inactive = inactive;
      in.omp_dt = (one - in.p_total) * dt;
      const DVec t_next = t + dt;
      const DVec q_next = simd::blend(inactive, q, qs.q_next);
      simd::store(t_a.data() + lb, t_next);
      simd::store(q_a.data() + lb, q_next);

      RatePass rates{t_next, q_next / vcapacity, vaccess};
      double* block = state.data() + cell(0, lb, 0);
      for (std::size_t i = 0; i < n; ++i, block += kBlock) {
        kernels::BankChunk s;
        s.w = simd::load(block + kW);
        s.ssthresh = simd::load(block + kSsthresh);
        s.accum = simd::load(block + kAccum);
        s.md_gate = simd::load(block + kMdGate);
        s.rto_until = simd::load(block + kRtoUntil);
        s.delivered = simd::load(block + kDelivered);
        in.rtt = simd::splat(rtt_c[i]);
        in.x = simd::load(block + kX);
        in.cx = simd::load(block + kCx);
        in.inv_rtt = simd::load(block + kInv);
        const kernels::StepOut out = kernels::step_kernel(s, in, consts);
        simd::store(block + kW, s.w);
        simd::store(block + kAccum, s.accum);
        simd::store(block + kDelivered, s.delivered);
        // The episode targets are the only writes to ssthresh, md_gate
        // and rto_until; a chunk without an episode left them untouched.
        if ((out.timeout_bits | out.loss_bits) != 0) {
          simd::store(block + kSsthresh, s.ssthresh);
          simd::store(block + kMdGate, s.md_gate);
          simd::store(block + kRtoUntil, s.rto_until);
          for (unsigned bits = out.timeout_bits; bits != 0;
               bits &= bits - 1) {
            ++timeouts[lb + static_cast<unsigned>(__builtin_ctz(bits))];
          }
          for (unsigned bits = out.loss_bits; bits != 0;
               bits &= bits - 1) {
            ++loss_events[lb + static_cast<unsigned>(__builtin_ctz(bits))];
          }
        }
        rates.add(i, rtt_c[i], count_c[i], s.w, s.rto_until, block);
      }
      simd::store(offered_a.data() + lb, rates.offered());
      simd::store(rto_expiry_a.data() + lb, rates.rto_expiry);

      // Per lane: the traced window, and lanes that reached the horizon.
      for (std::size_t l = lb; l < lb + kLanes; ++l) {
        if (lane_set(inactive_a[l])) continue;
        if (control.traced_class >= 0) {
          const std::size_t tc =
              static_cast<std::size_t>(control.traced_class);
          results[l].cwnd_trace.emplace_back(t_a[l], state[cell(tc, l, kW)]);
        }
        if (!(t_a[l] < horizon - kTimeEps)) finish_lane(l);
      }
    }
  }

  for (std::size_t l = 0; l < width; ++l) {
    FluidResult& result = results[l];
    result.per_class_goodput_bytes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double packets =
          state[cell(i, l, kDelivered)] - warmup_mark[l][i];
      const double bytes = packets * tcp_bytes;
      result.per_class_goodput_bytes.push_back(bytes);
      result.goodput_bytes += bytes;
    }
    result.goodput_rate = result.goodput_bytes * 8.0 / control.measure;
    result.utilization = result.goodput_rate / config.bottleneck;
    result.early_dropped_packets = early_a[l];
    result.forced_dropped_packets = forced_a[l];
    result.loss_events = loss_events[l];
    result.timeouts = timeouts[l];
  }
  return results;
}

}  // namespace pdos::fluid
