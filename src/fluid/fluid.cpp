#include "fluid/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fluid/kernels.hpp"
#include "fluid/solve_detail.hpp"
#include "util/assert.hpp"

namespace pdos::fluid {

using detail::kDupackFloor;
using detail::kInf;
using detail::kTimeEps;
using simd::DVec;

const char* simd_backend() { return simd::kBackendName; }

void FluidConfig::validate() const {
  aimd.validate();
  PDOS_REQUIRE(spacket > 0, "FluidConfig: spacket must be > 0");
  PDOS_REQUIRE(bottleneck > 0.0 && access > 0.0,
               "FluidConfig: link rates must be > 0");
  PDOS_REQUIRE(red.capacity > 0, "FluidConfig: buffer must be > 0");
  if (!droptail) red.validate();
  PDOS_REQUIRE(!classes.empty(), "FluidConfig: need at least one class");
  for (const FluidClass& c : classes) {
    PDOS_REQUIRE(c.rtt > 0.0, "FluidConfig: class RTT must be > 0");
    PDOS_REQUIRE(c.count > 0.0, "FluidConfig: class count must be > 0");
  }
  PDOS_REQUIRE(initial_ssthresh >= 2.0,
               "FluidConfig: initial_ssthresh must be >= 2");
  PDOS_REQUIRE(max_cwnd >= 1.0, "FluidConfig: max_cwnd must be >= 1");
  PDOS_REQUIRE(rto_min > 0.0, "FluidConfig: rto_min must be > 0");
  PDOS_REQUIRE(dt_pulse > 0.0 && dt_idle > 0.0,
               "FluidConfig: integration steps must be > 0");
}

void FluidAttack::validate() const {
  PDOS_REQUIRE(textent > 0.0 && rattack > 0.0 && tspace >= 0.0 &&
                   packet_bytes > 0,
               "FluidAttack: invalid pulse train");
}

void FluidControl::validate(std::size_t classes) const {
  PDOS_REQUIRE(warmup >= 0.0 && measure > 0.0,
               "FluidControl: need warmup >= 0 and measure > 0");
  PDOS_REQUIRE(bin_width > 0.0, "FluidControl: bin_width must be > 0");
  if (traced_class >= 0) {
    PDOS_REQUIRE(static_cast<std::size_t>(traced_class) < classes,
                 "FluidControl: traced_class out of range");
  }
}

std::vector<FluidClass> bin_classes(std::vector<FluidClass> classes,
                                    std::size_t max_classes) {
  PDOS_REQUIRE(max_classes >= 1, "bin_classes: max_classes must be >= 1");
  // Total count mass in, tracked with Neumaier compensation so the exact
  // Σcount invariant below is meaningful even for adversarial magnitudes.
  // (Integer flow counts below 2^53 sum exactly either way.)
  double total_in = 0.0;
  double comp_in = 0.0;
  for (const FluidClass& c : classes) {
    const double t = total_in + c.count;
    if (std::abs(total_in) >= std::abs(c.count)) {
      comp_in += (total_in - t) + c.count;
    } else {
      comp_in += (c.count - t) + total_in;
    }
    total_in = t;
  }
  // Exact phase: classes at bit-equal RTTs obey identical ODEs from
  // identical initial state, so summing their counts changes nothing but
  // the bookkeeping. Sorting first makes equal RTTs adjacent and the
  // output order canonical.
  std::sort(classes.begin(), classes.end(),
            [](const FluidClass& a, const FluidClass& b) {
              return a.rtt < b.rtt;
            });
  std::vector<FluidClass> merged;
  for (const FluidClass& c : classes) {
    if (!merged.empty() && merged.back().rtt == c.rtt) {
      merged.back().count += c.count;
    } else {
      merged.push_back(c);
    }
  }
  std::vector<FluidClass> binned;
  if (merged.size() <= max_classes) {
    binned = std::move(merged);
  } else {
    // Lossy phase: quantize the surviving RTTs onto max_classes
    // equal-width bins over [min, max] and collapse each occupied bin to
    // one class at its count-weighted mean RTT — the aggregate W/RTT
    // arrival rate of a bin is preserved to first order in the RTT
    // spread, which is what the queue balance integrates.
    const Time lo = merged.front().rtt;
    const Time hi = merged.back().rtt;
    const double span = hi - lo;  // > 0: equal RTTs all merged above
    std::vector<double> count(max_classes, 0.0);
    std::vector<double> rtt_mass(max_classes, 0.0);
    for (const FluidClass& c : merged) {
      std::size_t bin = static_cast<std::size_t>(
          static_cast<double>(max_classes) * (c.rtt - lo) / span);
      if (bin >= max_classes) bin = max_classes - 1;
      count[bin] += c.count;
      rtt_mass[bin] += c.count * c.rtt;
    }
    for (std::size_t b = 0; b < max_classes; ++b) {
      if (count[b] <= 0.0) continue;
      binned.push_back(FluidClass{rtt_mass[b] / count[b], count[b]});
    }
  }
  // Σcount invariant: binning only ever *adds* counts into buckets, so
  // the total flow mass must survive exactly up to summation rounding —
  // a drifted total would silently rescale goodput normalization in
  // million-flow runs. Compare compensated totals with a 1-ulp-per-term
  // relative guard; for integer counts both sums are exact and the check
  // amounts to equality.
  double total_out = 0.0;
  double comp_out = 0.0;
  for (const FluidClass& c : binned) {
    const double t = total_out + c.count;
    if (std::abs(total_out) >= std::abs(c.count)) {
      comp_out += (total_out - t) + c.count;
    } else {
      comp_out += (c.count - t) + total_out;
    }
    total_out = t;
  }
  const double in = total_in + comp_in;
  const double out = total_out + comp_out;
  PDOS_CHECK_MSG(std::abs(out - in) <=
                     1e-12 * std::max(1.0, std::abs(in)),
                 "bin_classes: total count mass drifted under binning");
  return binned;
}

double red_drop_probability(const RedParams& params, double avg) {
  return detail::red_drop_probability(params, avg);
}

AimdBank::AimdBank(const FluidConfig& config)
    : aimd_(config.aimd),
      access_pps_(config.access / (8.0 * static_cast<double>(config.spacket))),
      ssthresh0_(config.initial_ssthresh),
      max_cwnd_(config.max_cwnd),
      rto_min_(config.rto_min),
      ss_log_(std::log(1.0 + 1.0 / static_cast<double>(config.aimd.d))) {
  n_ = config.classes.size();
  // Pad the SoA state to the SIMD block width. Pad classes carry
  // rtt = +inf and count = 0: their arrival rate is w/inf = +0, their
  // windows never move (dt_rtts = 0), their loss pressure stays zero,
  // and their reduction terms are exact +0.0 — so the padded tail is
  // arithmetically invisible (see kernels.hpp).
  n_pad_ = (n_ + simd::kLanes - 1) & ~(simd::kLanes - 1);
  rtt_.assign(n_pad_, kInf);
  count_.assign(n_pad_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    rtt_[i] = config.classes[i].rtt;
    count_[i] = config.classes[i].count;
  }
  w_.assign(n_pad_, 1.0);
  ssthresh_.assign(n_pad_, ssthresh0_);
  accum_.assign(n_pad_, 0.0);
  md_gate_.assign(n_pad_, 0.0);
  rto_until_.assign(n_pad_, 0.0);
  delivered_.assign(n_pad_, 0.0);
  x_.assign(n_pad_, 0.0);
  cx_.assign(n_pad_, 0.0);
  inv_.assign(n_pad_, 0.0);
  // Belt and braces: a pad class can never accumulate a packet of loss
  // pressure, but gate it out of episodes regardless.
  for (std::size_t i = n_; i < n_pad_; ++i) md_gate_[i] = kInf;
}

double AimdBank::refresh_rates(Time now, Time queue_delay) const {
  if (now == x_now_ && queue_delay == x_delay_) return x_offered_;
  const DVec vnow = DVec::splat(now);
  const DVec vqd = DVec::splat(queue_delay);
  const DVec vaccess = DVec::splat(access_pps_);
  // Fixed-shape block tree: accumulator lane j holds classes ≡ j (mod 4)
  // in class order, combined (a0+a1)+(a2+a3) — the identical tree the
  // lane-batched path builds per lane, so offered rates never depend on
  // the vectorization axis.
  DVec acc = DVec::splat(0.0);
  for (std::size_t k = 0; k < n_pad_; k += simd::kLanes) {
    const kernels::RateOut<DVec> r = kernels::rate_kernel(
        DVec::load(w_.data() + k), DVec::load(rto_until_.data() + k), vnow,
        DVec::load(rtt_.data() + k), vqd, vaccess);
    simd::store(x_.data() + k, r.x);
    simd::store(inv_.data() + k, r.inv_rtt);
    const DVec cx = DVec::load(count_.data() + k) * r.x;
    simd::store(cx_.data() + k, cx);
    acc = acc + cx;
  }
  x_offered_ = kernels::tree_total(acc);
  x_now_ = now;
  x_delay_ = queue_delay;
  return x_offered_;
}

double AimdBank::offered_rate(Time now, Time queue_delay) const {
  return refresh_rates(now, queue_delay);
}

double AimdBank::step(Time now, Time dt, double p_early, double forced_frac,
                      Time queue_delay) {
  const double p_total = p_early + (1.0 - p_early) * forced_frac;
  const double offered = refresh_rates(now, queue_delay);
  kernels::AimdConsts c;
  c.access_pps = access_pps_;
  c.a = aimd_.a;
  c.b = aimd_.b;
  c.d = static_cast<double>(aimd_.d);
  c.a_over_d = aimd_.a / static_cast<double>(aimd_.d);
  c.ss_log = ss_log_;
  c.max_cwnd = max_cwnd_;
  c.rto_min = rto_min_;
  c.dupack_floor = kDupackFloor;
  kernels::StepIn<DVec> in;
  in.now = DVec::splat(now);
  in.dt = DVec::splat(dt);
  in.p_total = DVec::splat(p_total);
  in.queue_delay = DVec::splat(queue_delay);
  in.inactive = DVec::splat(simd::mask_false());
  in.omp_dt = DVec::splat((1.0 - p_total) * dt);
  for (std::size_t k = 0; k < n_pad_; k += simd::kLanes) {
    kernels::BankChunk<DVec> s;
    s.w = DVec::load(w_.data() + k);
    s.ssthresh = DVec::load(ssthresh_.data() + k);
    s.accum = DVec::load(accum_.data() + k);
    s.md_gate = DVec::load(md_gate_.data() + k);
    s.rto_until = DVec::load(rto_until_.data() + k);
    s.delivered = DVec::load(delivered_.data() + k);
    in.rtt = DVec::load(rtt_.data() + k);
    in.x = DVec::load(x_.data() + k);
    in.cx = DVec::load(cx_.data() + k);
    in.inv_rtt = DVec::load(inv_.data() + k);
    const kernels::StepOut out = kernels::step_kernel(s, in, c);
    simd::store(w_.data() + k, s.w);
    simd::store(ssthresh_.data() + k, s.ssthresh);
    simd::store(accum_.data() + k, s.accum);
    simd::store(md_gate_.data() + k, s.md_gate);
    simd::store(rto_until_.data() + k, s.rto_until);
    simd::store(delivered_.data() + k, s.delivered);
    timeouts += simd::mask_count(out.timeout_bits);
    loss_events += simd::mask_count(out.loss_bits);
  }
  x_now_ = -1.0;  // the windows moved: cached rates are stale
  return offered;
}

std::vector<double> AimdBank::delivered_packets() const {
  return std::vector<double>(delivered_.begin(),
                             delivered_.begin() +
                                 static_cast<std::ptrdiff_t>(n_));
}

std::vector<double> AimdBank::delivered_since(
    const std::vector<double>& mark) const {
  PDOS_CHECK(mark.size() == n_);
  std::vector<double> window(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    window[i] = delivered_[i] - mark[i];
  }
  return window;
}

Time AimdBank::next_rto_expiry() const {
  // Vectorized min over positive rto_until entries. Min is
  // order-independent, so this matches the scalar scan bitwise; pad
  // classes hold rto_until = 0 and blend to +inf like real idle ones.
  const DVec vinf = DVec::splat(kInf);
  DVec next = vinf;
  for (std::size_t k = 0; k < n_pad_; k += simd::kLanes) {
    const DVec r = DVec::load(rto_until_.data() + k);
    next = simd::vmin(
        next, simd::blend(simd::cmp_gt(r, DVec::splat(0.0)), r, vinf));
  }
  double lanes[simd::kLanes];
  simd::store(lanes, next);
  return *std::min_element(lanes, lanes + simd::kLanes);
}

FluidResult solve(const FluidConfig& config,
                  const std::optional<FluidAttack>& attack,
                  const FluidControl& control) {
  config.validate();
  control.validate(config.classes.size());
  if (attack) attack->validate();

  AimdBank bank(config);
  const double capacity = config.capacity_pps();
  const double buffer = static_cast<double>(config.red.capacity);
  const double atk_pps =
      attack ? attack->rattack / (8.0 * static_cast<double>(
                                            attack->packet_bytes))
             : 0.0;
  const double atk_bytes = attack ? static_cast<double>(attack->packet_bytes)
                                  : 0.0;
  const detail::PulseShape<double> shape{
      attack ? attack->period() : 1.0, attack ? attack->textent : 0.0,
      attack.has_value()};
  const double tcp_bytes = static_cast<double>(config.spacket);
  const Time horizon = control.horizon();
  // (1 - w_q)^n per arrival batch, via exp(n log(1 - w_q)) with the log
  // hoisted out of the step loop; pow() would redo it every step.
  const double ewma_log_keep =
      config.droptail ? 0.0 : std::log(1.0 - config.red.wq);

  FluidResult result;
  result.bin_width = control.bin_width;
  const std::size_t num_bins = static_cast<std::size_t>(
      std::ceil(horizon / control.bin_width - kTimeEps));
  result.incoming_bins.assign(num_bins, 0.0);
  result.attack_bins.assign(num_bins, 0.0);
  result.queue_occupancy.reserve(num_bins + 2);
  result.red_avg_samples.reserve(num_bins + 2);

  double q = 0.0;    // queue level, packets
  double avg = 0.0;  // RED EWMA estimate
  Time t = 0.0;
  Time next_sample = 0.0;
  std::vector<double> warmup_mark;
  bool marked = control.warmup == 0.0;
  if (marked) warmup_mark.assign(config.classes.size(), 0.0);

  while (t < horizon - kTimeEps) {
    // Sample occupancy/EWMA at bin boundaries (mirrors the packet path's
    // occupancy sampler, which fires at t = 0, bw, 2bw, ...).
    while (next_sample <= t + kTimeEps) {
      result.queue_occupancy.push_back(q);
      result.red_avg_samples.push_back(config.droptail ? 0.0 : avg);
      next_sample += control.bin_width;
    }
    if (!marked && t >= control.warmup - kTimeEps) {
      warmup_mark = bank.delivered_packets();
      marked = true;
    }

    const detail::PulsePhase<double> phase = detail::pulse_phase(shape, t);
    const Time dt = detail::clip_step(
        t, config, phase.in_pulse, horizon, phase.next_boundary, next_sample,
        bank.next_rto_expiry(), marked, control.warmup, control.bin_width);

    const Time queue_delay = q / capacity;
    const double offered = bank.offered_rate(t, queue_delay);
    const double atk_rate = phase.in_pulse ? atk_pps : 0.0;
    const double total_in = offered + atk_rate;

    const detail::QueueStep<double> qs = detail::queue_step(
        config, ewma_log_keep, capacity, buffer, q, avg, total_in, dt);
    avg = qs.avg;

    result.early_dropped_packets += qs.p_early * total_in * dt;
    result.forced_dropped_packets += qs.forced_frac * qs.admitted * dt;

    const std::size_t bin = std::min(
        num_bins - 1, static_cast<std::size_t>((t + 0.5 * dt) /
                                               control.bin_width));
    result.incoming_bins[bin] +=
        offered * dt * tcp_bytes + atk_rate * dt * atk_bytes;
    result.attack_bins[bin] += atk_rate * dt * atk_bytes;

    bank.step(t, dt, qs.p_early, qs.forced_frac, queue_delay);
    if (control.traced_class >= 0) {
      result.cwnd_trace.emplace_back(
          t + dt, bank.window(static_cast<std::size_t>(control.traced_class)));
    }

    q = qs.q_next;
    t += dt;
    ++result.steps;
  }
  while (next_sample <= horizon + kTimeEps) {
    result.queue_occupancy.push_back(q);
    result.red_avg_samples.push_back(config.droptail ? 0.0 : avg);
    next_sample += control.bin_width;
  }
  if (!marked) warmup_mark = bank.delivered_packets();

  const std::vector<double> window = bank.delivered_since(warmup_mark);
  result.per_class_goodput_bytes.reserve(window.size());
  for (double packets : window) {
    const double bytes = packets * tcp_bytes;
    result.per_class_goodput_bytes.push_back(bytes);
    result.goodput_bytes += bytes;
  }
  result.goodput_rate = result.goodput_bytes * 8.0 / control.measure;
  result.utilization = result.goodput_rate / config.bottleneck;
  result.loss_events = bank.loss_events;
  result.timeouts = bank.timeouts;
  return result;
}

}  // namespace pdos::fluid
