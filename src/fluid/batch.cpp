#include "fluid/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "fluid/batch_driver.hpp"
#include "fluid/batch_lanes.hpp"
#include "util/assert.hpp"

namespace pdos::fluid {

namespace detail {

#if defined(PDOS_FLUID_AVX512)
void run_lanes_avx512(LaneBatch& batch);  // batch_avx512.cpp
#endif

LaneBatch::LaneBatch(const FluidConfig& config,
                     const std::vector<BatchLane>& lanes,
                     const FluidControl& control, std::size_t vl)
    : config(config),
      control(control),
      n(config.classes.size()),
      width(lanes.size()),
      vl(vl),
      wpad((width + vl - 1) / vl * vl) {
  for (std::size_t b = 0; b < state.size(); b += kFields * vl) {
    std::fill_n(state.data() + b + kW * vl, vl, 1.0);
    std::fill_n(state.data() + b + kSsthresh * vl, vl,
                config.initial_ssthresh);
  }
  for (std::size_t i = 0; i < n; ++i) {
    rtt_c[i] = config.classes[i].rtt;
    count_c[i] = config.classes[i].count;
  }
  // Sized by resize(), not the count constructor: at -O3 GCC 12 cannot
  // bound `width` on the constructor path and warns -Walloc-size-larger-than.
  warmup_mark.resize(width);
  results.resize(width);

  consts.access_pps =
      config.access / (8.0 * static_cast<double>(config.spacket));
  consts.a = config.aimd.a;
  consts.b = config.aimd.b;
  consts.d = static_cast<double>(config.aimd.d);
  consts.a_over_d = config.aimd.a / static_cast<double>(config.aimd.d);
  consts.ss_log = std::log(1.0 + 1.0 / static_cast<double>(config.aimd.d));
  consts.max_cwnd = config.max_cwnd;
  consts.rto_min = config.rto_min;
  consts.dupack_floor = kDupackFloor;

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
}

void LaneBatch::sample_until(std::size_t l, Time until) {
  FluidResult& result = results[l];
  while (next_sample_a[l] <= until + kTimeEps) {
    result.queue_occupancy.push_back(q_a[l]);
    result.red_avg_samples.push_back(config.droptail ? 0.0 : avg_a[l]);
    next_sample_a[l] += control.bin_width;
  }
}

void LaneBatch::mark(std::size_t l) {
  warmup_mark[l].resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    warmup_mark[l][i] = state[cell(i, l, kDelivered)];
  }
  marked_a[l] = simd::mask_true();
}

void LaneBatch::trace(std::size_t l) {
  const std::size_t tc = static_cast<std::size_t>(control.traced_class);
  results[l].cwnd_trace.emplace_back(t_a[l], state[cell(tc, l, kW)]);
}

void LaneBatch::finish_lane(std::size_t l) {
  sample_until(l, horizon);
  if (!std::signbit(marked_a[l])) mark(l);
  inactive_a[l] = simd::mask_true();
  results[l].steps = steps;
  --active_count;
}

std::vector<FluidResult> LaneBatch::finish() {
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
  return std::move(results);
}

namespace {

constexpr LaneVariant kLaneVariants[] = {
    {simd::kBackendName, simd::DVec::kLanes, [] { return true; },
     [](LaneBatch& batch) { batch.step_lanes<simd::DVec>(); }},
#if defined(PDOS_FLUID_AVX512)
    {"avx512", 8,
     [] {
       __builtin_cpu_init();
       return __builtin_cpu_supports("avx512f") &&
              __builtin_cpu_supports("avx512dq");
     },
     run_lanes_avx512},
#endif
};

}  // namespace

std::span<const LaneVariant> lane_variants() { return kLaneVariants; }

const LaneVariant& selected_lane_variant() {
  static const LaneVariant& selected =
      *std::find_if(std::rbegin(kLaneVariants), std::rend(kLaneVariants),
                    [](const LaneVariant& v) { return v.cpu_supports(); });
  return selected;
}

std::vector<FluidResult> solve_batch_on(const LaneVariant& variant,
                                        const FluidConfig& config,
                                        const std::vector<BatchLane>& lanes,
                                        const FluidControl& control) {
  config.validate();
  PDOS_REQUIRE(!lanes.empty(), "solve_batch: need at least one lane");
  control.validate(config.classes.size());
  for (const BatchLane& lane : lanes) {
    if (lane.attack) lane.attack->validate();
  }
  LaneBatch batch(config, lanes, control, variant.lanes);
  variant.run(batch);
  return batch.finish();
}

}  // namespace detail

std::vector<FluidResult> solve_batch(const FluidConfig& config,
                                     const std::vector<BatchLane>& lanes,
                                     const FluidControl& control) {
  return detail::solve_batch_on(detail::selected_lane_variant(), config,
                                lanes, control);
}

const char* batch_simd_backend() {
  return detail::selected_lane_variant().backend;
}

}  // namespace pdos::fluid
