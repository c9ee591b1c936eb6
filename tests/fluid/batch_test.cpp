// Bit-identity tests for the lane-batched fluid solver (src/fluid/batch.*):
// solve_batch must reproduce point-at-a-time fluid::solve exactly — not
// approximately — for every lane, on every SIMD backend and every lane
// variant the CPU runs (4 and, on AVX-512 hosts, 8 lanes per vector),
// including lanes that hit the RTO/dupack-floor masked branches and pad
// lanes/tails. This is the determinism contract of DESIGN.md §16: the
// batched path may only ever change *when* arithmetic runs, never *what*
// arithmetic runs.
#include "fluid/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fluid/batch_lanes.hpp"
#include "fluid/fluid.hpp"
#include "util/assert.hpp"

namespace pdos::fluid {
namespace {

FluidConfig dumbbell_config(int flows, bool droptail = false) {
  FluidConfig config =
      make_fluid_config(ScenarioConfig::ns2_dumbbell(flows));
  config.droptail = droptail;
  return config;
}

FluidControl quick_control() {
  FluidControl control;
  control.warmup = sec(2);
  control.measure = sec(6);
  return control;
}

// FluidAttack at duty cycle gamma: tspace = textent * (1 - gamma) / gamma.
FluidAttack attack_at(Time textent, BitRate rattack, double gamma) {
  FluidAttack attack;
  attack.textent = textent;
  attack.rattack = rattack;
  attack.tspace = textent * (1.0 - gamma) / gamma;
  return attack;
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b, const char* what,
                       std::size_t lane) {
  ASSERT_EQ(a.size(), b.size()) << what << " lane " << lane;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on doubles is exact; a failure prints the values, and the
    // hex dump in the message pins down sub-ulp drift.
    EXPECT_EQ(a[i], b[i]) << what << "[" << i << "] lane " << lane;
  }
}

void expect_result_bits_equal(const FluidResult& batch,
                              const FluidResult& single, std::size_t lane) {
  EXPECT_EQ(batch.goodput_bytes, single.goodput_bytes) << "lane " << lane;
  EXPECT_EQ(batch.goodput_rate, single.goodput_rate) << "lane " << lane;
  EXPECT_EQ(batch.utilization, single.utilization) << "lane " << lane;
  expect_bits_equal(batch.per_class_goodput_bytes,
                    single.per_class_goodput_bytes, "per_class", lane);
  expect_bits_equal(batch.incoming_bins, single.incoming_bins,
                    "incoming_bins", lane);
  expect_bits_equal(batch.attack_bins, single.attack_bins, "attack_bins",
                    lane);
  expect_bits_equal(batch.queue_occupancy, single.queue_occupancy,
                    "queue_occupancy", lane);
  expect_bits_equal(batch.red_avg_samples, single.red_avg_samples,
                    "red_avg_samples", lane);
  EXPECT_EQ(batch.bin_width, single.bin_width) << "lane " << lane;
  EXPECT_EQ(batch.early_dropped_packets, single.early_dropped_packets)
      << "lane " << lane;
  EXPECT_EQ(batch.forced_dropped_packets, single.forced_dropped_packets)
      << "lane " << lane;
  EXPECT_EQ(batch.loss_events, single.loss_events) << "lane " << lane;
  EXPECT_EQ(batch.timeouts, single.timeouts) << "lane " << lane;
  EXPECT_EQ(batch.steps, single.steps) << "lane " << lane;
  ASSERT_EQ(batch.cwnd_trace.size(), single.cwnd_trace.size())
      << "lane " << lane;
  for (std::size_t i = 0; i < batch.cwnd_trace.size(); ++i) {
    EXPECT_EQ(batch.cwnd_trace[i].first, single.cwnd_trace[i].first)
        << "lane " << lane;
    EXPECT_EQ(batch.cwnd_trace[i].second, single.cwnd_trace[i].second)
        << "lane " << lane;
  }
}

// Every lane variant the running CPU supports.
std::vector<detail::LaneVariant> runnable_variants() {
  std::vector<detail::LaneVariant> variants;
  for (const detail::LaneVariant& v : detail::lane_variants()) {
    if (v.cpu_supports()) variants.push_back(v);
  }
  return variants;
}

void expect_batch_matches_single(const FluidConfig& config,
                                 const std::vector<BatchLane>& lanes,
                                 const FluidControl& control) {
  std::vector<FluidResult> single;
  for (const BatchLane& lane : lanes) {
    single.push_back(solve(config, lane.attack, control));
  }
  for (const detail::LaneVariant& variant : runnable_variants()) {
    SCOPED_TRACE(testing::Message() << variant.backend << " lanes, "
                                    << variant.lanes << " per vector");
    const std::vector<FluidResult> batch =
        detail::solve_batch_on(variant, config, lanes, control);
    ASSERT_EQ(batch.size(), lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      expect_result_bits_equal(batch[l], single[l], l);
    }
  }
}

TEST(SolveBatchTest, GammaGridLanesMatchSinglePointBitForBit) {
  std::vector<BatchLane> lanes;
  for (double gamma : {0.15, 0.3, 0.45, 0.6, 0.75, 0.85, 0.9, 0.95}) {
    lanes.push_back({attack_at(ms(50), mbps(25), gamma)});
  }
  for (bool droptail : {false, true}) {
    SCOPED_TRACE(droptail ? "DropTail" : "RED");
    expect_batch_matches_single(dumbbell_config(15, droptail), lanes,
                                quick_control());
  }
}

TEST(SolveBatchTest, BaselineAndAttackLanesMix) {
  std::vector<BatchLane> lanes;
  lanes.push_back({std::nullopt});  // unattacked baseline lane
  lanes.push_back({attack_at(ms(50), mbps(25), 0.5)});
  lanes.push_back({std::nullopt});
  lanes.push_back({attack_at(ms(100), mbps(40), 0.8)});
  // warmup = 0 marks every lane before its first step.
  FluidControl no_warmup = quick_control();
  no_warmup.warmup = 0.0;
  for (bool droptail : {false, true}) {
    for (const FluidControl& control : {quick_control(), no_warmup}) {
      SCOPED_TRACE(testing::Message()
                   << (droptail ? "DropTail" : "RED") << " warmup "
                   << control.warmup);
      expect_batch_matches_single(dumbbell_config(9, droptail), lanes,
                                  control);
    }
  }
}

TEST(SolveBatchTest, PaddedTailWidthsMatch) {
  // Widths 1..17: every pad-tail residue mod 4 and mod 8, the W=1
  // degenerate batch, and batches of one, two and three 8-lane vectors.
  const FluidConfig config = dumbbell_config(7);
  const FluidControl control = quick_control();
  for (std::size_t width = 1; width <= 17; ++width) {
    SCOPED_TRACE(testing::Message() << "width " << width);
    std::vector<BatchLane> lanes;
    for (std::size_t l = 0; l < width; ++l) {
      const double gamma = 0.05 + 0.05 * static_cast<double>(l);
      lanes.push_back({attack_at(ms(50), mbps(25), gamma)});
    }
    expect_batch_matches_single(config, lanes, control);
  }
}

TEST(SolveBatchTest, GridNotMultipleOfBatchWidthChunks) {
  // Caller-side chunking shape: a 10-point γ grid evaluated in chunks of
  // one 4-lane vector and of run_sweep's batch width (kFluidBatchWidth =
  // 8, one AVX-512 vector) leaves ragged 2-lane tails; every chunk must
  // still match the single-point results.
  const FluidConfig config = dumbbell_config(15);
  const FluidControl control = quick_control();
  std::vector<BatchLane> grid;
  for (int i = 0; i < 10; ++i) {
    grid.push_back(
        {attack_at(ms(50), mbps(25), 0.08 + 0.09 * static_cast<double>(i))});
  }
  for (std::size_t chunk_width : {std::size_t{4}, std::size_t{8}}) {
    for (std::size_t start = 0; start < grid.size(); start += chunk_width) {
      SCOPED_TRACE(testing::Message()
                   << "chunks of " << chunk_width << " from " << start);
      const std::size_t stop = std::min(grid.size(), start + chunk_width);
      const std::vector<BatchLane> chunk(grid.begin() + start,
                                         grid.begin() + stop);
      expect_batch_matches_single(config, chunk, control);
    }
  }
}

TEST(SolveBatchTest, RtoAndDupackFloorBranchesCovered) {
  // A severe wide pulse drives windows below the dupack floor: the
  // single-point solver takes RTO freezes here (fluid_test pins that).
  // Mixing severe and mild lanes makes frozen and growing lanes share
  // SIMD chunks, exercising the masked branches both ways.
  const FluidConfig config = dumbbell_config(15);
  FluidAttack severe;
  severe.textent = ms(200);
  severe.rattack = mbps(40);
  severe.tspace = ms(100);
  std::vector<BatchLane> lanes;
  lanes.push_back({severe});
  lanes.push_back({attack_at(ms(50), mbps(25), 0.3)});
  lanes.push_back({severe});
  lanes.push_back({std::nullopt});
  lanes.push_back({attack_at(ms(20), mbps(25), 0.9)});
  const std::vector<FluidResult> batch =
      solve_batch(config, lanes, quick_control());
  EXPECT_GT(batch[0].timeouts, 0u)
      << "severe lane must actually hit the RTO branch for this test to "
         "cover it";
  // The severe lane also overflows the buffer (the forced-drop blend) and
  // drives RED's average past max_th (the gentle ramp).
  EXPECT_GT(batch[0].forced_dropped_packets, 0.0);
  EXPECT_GE(*std::max_element(batch[0].red_avg_samples.begin(),
                              batch[0].red_avg_samples.end()),
            config.red.max_th);
  expect_batch_matches_single(config, lanes, quick_control());
}

TEST(SolveBatchTest, RandomizedLanesPropertyTest) {
  // Property: for random topologies (class count, RTT mix, flow counts)
  // and random per-lane (γ, T_extent, R_attack) plans, batched results
  // are bit-identical to single-point solves. Seeds are fixed — failures
  // reproduce.
  std::mt19937_64 rng(0x9e3779b97f4a7c15ull);
  std::uniform_int_distribution<int> n_classes(3, 17);
  std::uniform_int_distribution<int> n_lanes(1, 9);
  std::uniform_real_distribution<double> rtt_ms(20.0, 460.0);
  std::uniform_int_distribution<int> flows(1, 40);
  std::uniform_real_distribution<double> gamma(0.1, 0.95);
  std::uniform_real_distribution<double> textent_ms(15.0, 220.0);
  std::uniform_real_distribution<double> rattack_mbps(18.0, 45.0);
  std::uniform_int_distribution<int> coin(0, 4);

  FluidControl control;
  control.warmup = sec(1);
  control.measure = sec(4);

  for (int trial = 0; trial < 8; ++trial) {
    FluidConfig config = dumbbell_config(15);
    config.classes.clear();
    const int n = n_classes(rng);
    for (int i = 0; i < n; ++i) {
      config.classes.push_back(
          FluidClass{ms(rtt_ms(rng)), static_cast<double>(flows(rng))});
    }
    std::vector<BatchLane> lanes;
    const int width = n_lanes(rng);
    for (int l = 0; l < width; ++l) {
      if (coin(rng) == 0) {
        lanes.push_back({std::nullopt});
      } else {
        lanes.push_back(
            {attack_at(ms(textent_ms(rng)), mbps(rattack_mbps(rng)),
                       gamma(rng))});
      }
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial << " classes " << n
                                    << " width " << width);
    expect_batch_matches_single(config, lanes, control);
  }
}

TEST(SolveBatchTest, TracedClassLaneMatches) {
  const FluidConfig config = dumbbell_config(5);
  FluidControl control = quick_control();
  control.traced_class = 2;
  std::vector<BatchLane> lanes;
  lanes.push_back({attack_at(ms(50), mbps(25), 0.5)});
  lanes.push_back({std::nullopt});
  expect_batch_matches_single(config, lanes, control);
}

TEST(SolveBatchTest, DeterministicAcrossCalls) {
  const FluidConfig config = dumbbell_config(15);
  std::vector<BatchLane> lanes;
  for (double gamma : {0.2, 0.5, 0.8}) {
    lanes.push_back({attack_at(ms(50), mbps(25), gamma)});
  }
  const auto a = solve_batch(config, lanes, quick_control());
  const auto b = solve_batch(config, lanes, quick_control());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    expect_result_bits_equal(a[l], b[l], l);
  }
}

TEST(SolveBatchTest, RejectsNonPositiveOrNanBinWidth) {
  const FluidConfig config = dumbbell_config(5);
  const std::vector<BatchLane> lanes = {{std::nullopt},
                                        {attack_at(ms(50), mbps(25), 0.5)}};
  for (Time width : {0.0, -0.1, std::nan("")}) {
    FluidControl control = quick_control();
    control.bin_width = width;
    EXPECT_THROW(solve_batch(config, lanes, control), ParameterError)
        << "bin_width " << width;
  }
}

TEST(SolveBatchTest, ReportsCompiledBackend) {
  // Not an assertion on which backend — just that the queries are wired:
  // the class axis names one of the three 4-lane backends, and the lane
  // axis that one or "avx512" (CI runs both a SIMD and a PDOS_SIMD=OFF
  // scalar build of this test).
  const std::string backend = simd_backend();
  EXPECT_TRUE(backend == "avx2" || backend == "neon" || backend == "scalar")
      << backend;
  const std::string lanes = batch_simd_backend();
  EXPECT_TRUE(lanes == backend || (backend == "avx2" && lanes == "avx512"))
      << lanes << " lanes on " << backend << " classes";
  EXPECT_EQ(detail::lane_variants().front().backend, backend);
  EXPECT_EQ(detail::lane_variants().front().lanes, 4u);
}

TEST(SolveBatchTest, DispatchFollowsTheCpu) {
  // solve_batch runs the widest variant the CPU supports. On x86-64 SIMD
  // builds that is the 8-lane one exactly when the CPU has AVX-512F and
  // DQ: a detection slip would cost the speed-up silently, not fail.
  const detail::LaneVariant& picked = detail::selected_lane_variant();
  EXPECT_STREQ(picked.backend, batch_simd_backend());
  EXPECT_TRUE(picked.cpu_supports());
  for (const detail::LaneVariant& v : detail::lane_variants()) {
    if (v.cpu_supports()) {
      EXPECT_GE(picked.lanes, v.lanes) << v.backend;
    }
  }
#if defined(__x86_64__)
  if (std::string(simd_backend()) == "avx2") {
    __builtin_cpu_init();
    const bool avx512 = __builtin_cpu_supports("avx512f") &&
                        __builtin_cpu_supports("avx512dq");
    EXPECT_EQ(picked.lanes == 8, avx512) << picked.backend;
    EXPECT_EQ(std::string(picked.backend) == "avx512", avx512);
  }
#endif
  std::printf("solve_batch lane variant: %s, %zu lanes per vector\n",
              picked.backend, picked.lanes);
}

}  // namespace
}  // namespace pdos::fluid
