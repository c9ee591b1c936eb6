// Frozen pre-vectorization fluid solver (see refbench.hpp). Verbatim
// snapshot of fluid.cpp's AimdBank + solve from before the SIMD kernel
// refactor; keep byte-stable so the bench A/B arm stays meaningful.

#include "fluid/refbench.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace pdos::fluid::refbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDupackFloor = 4.0;
constexpr double kTimeEps = 1e-9;

// The branchy scalar RED ramp fluid::red_drop_probability had at the
// snapshot; the live one is now the shared lane template. Same values,
// kept here so the reference's arithmetic stays frozen too.
double ref_red_drop_probability(const RedParams& params, double avg) {
  double pb;
  if (avg < params.min_th) return 0.0;
  if (avg < params.max_th) {
    pb = params.max_p * (avg - params.min_th) /
         (params.max_th - params.min_th);
  } else if (params.gentle && avg < 2.0 * params.max_th) {
    pb = params.max_p +
         (1.0 - params.max_p) * (avg - params.max_th) / params.max_th;
  } else {
    return 1.0;
  }
  return std::min(1.0, 2.0 * pb / (1.0 + pb));
}

class RefAimdBank {
 public:
  explicit RefAimdBank(const FluidConfig& config)
      : aimd_(config.aimd),
        access_pps_(config.access /
                    (8.0 * static_cast<double>(config.spacket))),
        ssthresh0_(config.initial_ssthresh),
        max_cwnd_(config.max_cwnd),
        rto_min_(config.rto_min),
        ss_log_(std::log(1.0 + 1.0 / static_cast<double>(config.aimd.d))) {
    const std::size_t n = config.classes.size();
    rtt_.reserve(n);
    count_.reserve(n);
    for (const FluidClass& c : config.classes) {
      rtt_.push_back(c.rtt);
      count_.push_back(c.count);
    }
    w_.assign(n, 1.0);
    ssthresh_.assign(n, ssthresh0_);
    accum_.assign(n, 0.0);
    md_gate_.assign(n, 0.0);
    rto_until_.assign(n, 0.0);
    delivered_.assign(n, 0.0);
    x_.assign(n, 0.0);
  }

  double refresh_rates(Time now, Time queue_delay) const {
    if (now == x_now_ && queue_delay == x_delay_) return x_offered_;
    double offered = 0.0;
    for (std::size_t i = 0; i < w_.size(); ++i) {
      const double active = now < rto_until_[i] ? 0.0 : 1.0;
      const double x =
          active * std::min(w_[i] / (rtt_[i] + queue_delay), access_pps_);
      x_[i] = x;
      offered += count_[i] * x;
    }
    x_offered_ = offered;
    x_now_ = now;
    x_delay_ = queue_delay;
    return offered;
  }

  double offered_rate(Time now, Time queue_delay) const {
    return refresh_rates(now, queue_delay);
  }

  double step(Time now, Time dt, double p_early, double forced_frac,
              Time queue_delay) {
    const double p_total = p_early + (1.0 - p_early) * forced_frac;
    const double offered = refresh_rates(now, queue_delay);
    for (std::size_t i = 0; i < w_.size(); ++i) {
      if (now < rto_until_[i]) continue;
      const double rtt = rtt_[i] + queue_delay;
      const double dt_rtts = dt / rtt;
      const double x = x_[i];
      delivered_[i] += count_[i] * x * (1.0 - p_total) * dt;
      if (p_total > 0.0) {
        accum_[i] += p_total * x * dt;
      } else if (accum_[i] > 0.0) {
        accum_[i] *= 1.0 - std::min(1.0, 0.5 * dt_rtts);
      }
      if (accum_[i] >= 1.0 && now >= md_gate_[i]) {
        accum_[i] = 0.0;
        if (w_[i] < kDupackFloor) {
          ++timeouts;
          ssthresh_[i] = std::max(2.0, 0.5 * w_[i]);
          w_[i] = 1.0;
          rto_until_[i] = now + std::max(rto_min_, 2.0 * rtt);
          md_gate_[i] = rto_until_[i];
        } else {
          ++loss_events;
          ssthresh_[i] = std::max(2.0, aimd_.b * w_[i]);
          w_[i] = std::max(1.0, aimd_.b * w_[i]);
          md_gate_[i] = now + rtt;
        }
        continue;
      }
      if (w_[i] < ssthresh_[i]) {
        w_[i] += w_[i] * ss_log_ * dt_rtts;
      } else {
        w_[i] += aimd_.a * dt_rtts / static_cast<double>(aimd_.d);
      }
      if (w_[i] > max_cwnd_) w_[i] = max_cwnd_;
    }
    x_now_ = -1.0;
    return offered;
  }

  std::vector<double> delivered_packets() const { return delivered_; }

  std::vector<double> delivered_since(const std::vector<double>& mark) const {
    PDOS_CHECK(mark.size() == delivered_.size());
    std::vector<double> window(delivered_.size());
    for (std::size_t i = 0; i < delivered_.size(); ++i) {
      window[i] = delivered_[i] - mark[i];
    }
    return window;
  }

  double window(std::size_t i) const { return w_[i]; }

  Time next_rto_expiry() const {
    Time next = kInf;
    for (double until : rto_until_) {
      if (until > 0.0 && until < next) next = until;
    }
    return next;
  }

  std::uint64_t loss_events = 0;
  std::uint64_t timeouts = 0;

 private:
  AimdParams aimd_;
  double access_pps_ = 0.0;
  double ssthresh0_ = 64.0;
  double max_cwnd_ = 10000.0;
  Time rto_min_ = sec(1.0);
  double ss_log_ = 0.0;

  std::vector<double> rtt_;
  std::vector<double> count_;
  std::vector<double> w_;
  std::vector<double> ssthresh_;
  std::vector<double> accum_;
  std::vector<double> md_gate_;
  std::vector<double> rto_until_;
  std::vector<double> delivered_;

  mutable std::vector<double> x_;
  mutable double x_offered_ = 0.0;
  mutable Time x_now_ = -1.0;
  mutable Time x_delay_ = -1.0;
};

}  // namespace

FluidResult solve(const FluidConfig& config,
                  const std::optional<FluidAttack>& attack,
                  const FluidControl& control) {
  config.validate();
  PDOS_REQUIRE(control.warmup >= 0.0 && control.measure > 0.0,
               "FluidControl: need warmup >= 0 and measure > 0");
  if (attack) {
    PDOS_REQUIRE(attack->textent > 0.0 && attack->rattack > 0.0 &&
                     attack->tspace >= 0.0 && attack->packet_bytes > 0,
                 "FluidAttack: invalid pulse train");
  }
  if (control.traced_class >= 0) {
    PDOS_REQUIRE(static_cast<std::size_t>(control.traced_class) <
                     config.classes.size(),
                 "FluidControl: traced_class out of range");
  }

  RefAimdBank bank(config);
  const double capacity = config.capacity_pps();
  const double buffer = static_cast<double>(config.red.capacity);
  const double atk_pps =
      attack ? attack->rattack /
                   (8.0 * static_cast<double>(attack->packet_bytes))
             : 0.0;
  const double atk_bytes =
      attack ? static_cast<double>(attack->packet_bytes) : 0.0;
  const double tcp_bytes = static_cast<double>(config.spacket);
  const Time horizon = control.horizon();
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

  double q = 0.0;
  double avg = 0.0;
  Time t = 0.0;
  Time next_sample = 0.0;
  std::vector<double> warmup_mark;
  bool marked = control.warmup == 0.0;
  if (marked) warmup_mark.assign(config.classes.size(), 0.0);

  while (t < horizon - kTimeEps) {
    while (next_sample <= t + kTimeEps) {
      result.queue_occupancy.push_back(q);
      result.red_avg_samples.push_back(config.droptail ? 0.0 : avg);
      next_sample += control.bin_width;
    }
    if (!marked && t >= control.warmup - kTimeEps) {
      warmup_mark = bank.delivered_packets();
      marked = true;
    }

    bool in_pulse = false;
    Time next_boundary = kInf;
    if (attack) {
      const Time period = attack->period();
      const double k = std::floor((t + kTimeEps) / period);
      const Time pulse_start = k * period;
      if (t < pulse_start + attack->textent - kTimeEps) {
        in_pulse = true;
        next_boundary = pulse_start + attack->textent;
      } else {
        next_boundary = (k + 1.0) * period;
      }
    }

    Time dt = in_pulse ? config.dt_pulse : config.dt_idle;
    dt = std::min(dt, horizon - t);
    dt = std::min(dt, next_boundary - t);
    dt = std::min(dt, next_sample - t);
    const Time rto_expiry = bank.next_rto_expiry();
    if (rto_expiry > t + kTimeEps) dt = std::min(dt, rto_expiry - t);
    if (!marked) dt = std::min(dt, control.warmup - t);
    const Time next_edge =
        (std::floor(t / control.bin_width + kTimeEps) + 1.0) *
        control.bin_width;
    dt = std::min(dt, next_edge - t);
    if (dt < kTimeEps) dt = kTimeEps;

    const Time queue_delay = q / capacity;
    const double offered = bank.offered_rate(t, queue_delay);
    const double atk_rate = in_pulse ? atk_pps : 0.0;
    const double total_in = offered + atk_rate;

    if (!config.droptail && total_in > 0.0) {
      avg = q + (avg - q) * std::exp(total_in * dt * ewma_log_keep);
    }
    const double p_early =
        config.droptail ? 0.0 : ref_red_drop_probability(config.red, avg);

    const double admitted = (1.0 - p_early) * total_in;
    double q_next = q + (admitted - capacity) * dt;
    double forced_frac = 0.0;
    if (q_next > buffer) {
      const double inflow = admitted * dt;
      if (inflow > 0.0) {
        forced_frac = std::min(1.0, (q_next - buffer) / inflow);
      }
      q_next = buffer;
    }
    if (q_next < 0.0) q_next = 0.0;

    result.early_dropped_packets += p_early * total_in * dt;
    result.forced_dropped_packets += forced_frac * admitted * dt;

    const std::size_t bin = std::min(
        num_bins - 1,
        static_cast<std::size_t>((t + 0.5 * dt) / control.bin_width));
    result.incoming_bins[bin] +=
        offered * dt * tcp_bytes + atk_rate * dt * atk_bytes;
    result.attack_bins[bin] += atk_rate * dt * atk_bytes;

    bank.step(t, dt, p_early, forced_frac, queue_delay);
    if (control.traced_class >= 0) {
      result.cwnd_trace.emplace_back(
          t + dt, bank.window(static_cast<std::size_t>(control.traced_class)));
    }

    q = q_next;
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

}  // namespace pdos::fluid::refbench
