// Unit tests for the fluid AIMD solver (src/fluid/fluid.*): drop-curve
// shape, baseline behaviour, attack response, determinism, and the RTO
// freeze discontinuity.
#include "fluid/fluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "core/experiment.hpp"
#include "util/assert.hpp"

namespace pdos::fluid {
namespace {

FluidConfig dumbbell_config(int flows) {
  return make_fluid_config(ScenarioConfig::ns2_dumbbell(flows));
}

TEST(RedDropProbabilityTest, FollowsTheGentleRamp) {
  RedParams p = RedParams::paper_testbed(100);  // min 20, max 80
  EXPECT_EQ(red_drop_probability(p, 0.0), 0.0);
  EXPECT_EQ(red_drop_probability(p, 19.9), 0.0);
  // Mid-ramp: pb = max_p/2, spread expectation 2pb/(1+pb).
  const double pb = 0.5 * p.max_p;
  EXPECT_NEAR(red_drop_probability(p, 50.0), 2.0 * pb / (1.0 + pb), 1e-12);
  // Gentle region ramps from max_p at max_th to 1 at 2*max_th.
  const double mid_gentle = p.max_p + (1.0 - p.max_p) * 0.5;
  EXPECT_NEAR(red_drop_probability(p, 120.0),
              2.0 * mid_gentle / (1.0 + mid_gentle), 1e-12);
  EXPECT_EQ(red_drop_probability(p, 160.0), 1.0);
  EXPECT_EQ(red_drop_probability(p, 400.0), 1.0);
}

TEST(RedDropProbabilityTest, MonotoneInAvg) {
  RedParams p = RedParams::paper_testbed(240);
  double prev = -1.0;
  for (double avg = 0.0; avg <= 2.2 * p.max_th; avg += 1.0) {
    const double drop = red_drop_probability(p, avg);
    EXPECT_GE(drop, prev) << "avg=" << avg;
    EXPECT_GE(drop, 0.0);
    EXPECT_LE(drop, 1.0);
    prev = drop;
  }
}

TEST(FluidSolveTest, BaselineFillsTheBottleneck) {
  FluidControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  const FluidResult r = solve(dumbbell_config(15), std::nullopt, control);
  // A 15-flow NewReno aggregate keeps a 15 Mbps RED bottleneck above 90%
  // utilization (Lemma 1's premise; the packet path measures ~95%).
  EXPECT_GT(r.utilization, 0.90);
  EXPECT_LE(r.utilization, 1.0 + 1e-9);
  EXPECT_EQ(r.per_class_goodput_bytes.size(), 15u);
  for (double bytes : r.per_class_goodput_bytes) EXPECT_GT(bytes, 0.0);
  EXPECT_GT(r.steps, 0u);
  EXPECT_TRUE(r.attack_bins.empty() ||
              *std::max_element(r.attack_bins.begin(), r.attack_bins.end()) ==
                  0.0);
}

TEST(FluidSolveTest, PulsingAttackDegradesGoodput) {
  FluidControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  const FluidConfig config = dumbbell_config(15);
  const FluidResult base = solve(config, std::nullopt, control);
  FluidAttack attack;  // gamma = 0.5 at T_extent = 50 ms, R_attack = 25 Mbps
  attack.textent = ms(50);
  attack.rattack = mbps(25);
  attack.tspace = ms(116.667);
  const FluidResult hit = solve(config, attack, control);
  EXPECT_LT(hit.goodput_rate, 0.75 * base.goodput_rate);
  EXPECT_GT(hit.goodput_rate, 0.0);
  // The attack shows up in the series and the loss accounting.
  EXPECT_GT(*std::max_element(hit.attack_bins.begin(), hit.attack_bins.end()),
            0.0);
  EXPECT_GT(hit.early_dropped_packets + hit.forced_dropped_packets, 0.0);
  EXPECT_GT(hit.loss_events + hit.timeouts, 0u);
}

TEST(FluidSolveTest, DeterministicBitForBit) {
  FluidControl control;
  control.warmup = sec(2);
  control.measure = sec(6);
  FluidAttack attack;
  attack.tspace = ms(450);
  const FluidConfig config = dumbbell_config(25);
  const FluidResult a = solve(config, attack, control);
  const FluidResult b = solve(config, attack, control);
  EXPECT_EQ(a.goodput_bytes, b.goodput_bytes);
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.queue_occupancy.size(), b.queue_occupancy.size());
  for (std::size_t i = 0; i < a.queue_occupancy.size(); ++i) {
    EXPECT_EQ(a.queue_occupancy[i], b.queue_occupancy[i]) << i;
  }
  ASSERT_EQ(a.red_avg_samples.size(), b.red_avg_samples.size());
  for (std::size_t i = 0; i < a.red_avg_samples.size(); ++i) {
    EXPECT_EQ(a.red_avg_samples[i], b.red_avg_samples[i]) << i;
  }
}

TEST(FluidSolveTest, SevereAttackTriggersRtoFreezes) {
  FluidControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  FluidAttack attack;  // near-flooding: long pulses, short gaps
  attack.textent = ms(200);
  attack.rattack = mbps(25);
  attack.tspace = ms(100);
  const FluidResult r = solve(dumbbell_config(15), attack, control);
  EXPECT_GT(r.timeouts, 0u);
  EXPECT_LT(r.utilization, 0.5);
}

TEST(FluidSolveTest, TracedClassRecordsWindowTrajectory) {
  FluidControl control;
  control.warmup = sec(1);
  control.measure = sec(3);
  control.traced_class = 0;
  const FluidResult r = solve(dumbbell_config(15), std::nullopt, control);
  ASSERT_FALSE(r.cwnd_trace.empty());
  double prev_t = -1.0;
  for (const auto& [t, w] : r.cwnd_trace) {
    EXPECT_GT(t, prev_t);
    EXPECT_GT(w, 0.0);
    prev_t = t;
  }
}

TEST(FluidSolveTest, BinsCoverTheWholeRun) {
  FluidControl control;
  control.warmup = sec(1);
  control.measure = sec(2);
  control.bin_width = ms(100);
  const FluidResult r = solve(dumbbell_config(15), std::nullopt, control);
  // 3 s at 100 ms bins: 30 bins, 31 boundary samples (t = 0 included).
  EXPECT_EQ(r.incoming_bins.size(), 30u);
  EXPECT_EQ(r.attack_bins.size(), 30u);
  EXPECT_EQ(r.queue_occupancy.size(), r.red_avg_samples.size());
  EXPECT_GE(r.queue_occupancy.size(), 30u);
}

TEST(BinClassesTest, EqualRttsMergeExactly) {
  // The testbed scenario gives every flow the same RTT: binning must
  // collapse it to ONE class carrying the whole population, at any budget.
  FluidConfig config = make_fluid_config(ScenarioConfig::testbed(10));
  const auto binned = bin_classes(config.classes, 4);
  ASSERT_EQ(binned.size(), 1u);
  EXPECT_EQ(binned[0].rtt, config.classes[0].rtt);
  EXPECT_EQ(binned[0].count, 10.0);
}

TEST(BinClassesTest, PreservesPopulationAndRttRange) {
  FluidConfig config = dumbbell_config(45);  // 45 distinct RTTs
  const auto binned = bin_classes(config.classes, 8);
  ASSERT_LE(binned.size(), 8u);
  ASSERT_GE(binned.size(), 2u);
  double total = 0.0;
  Time prev = 0.0;
  for (const FluidClass& c : binned) {
    EXPECT_GT(c.rtt, prev) << "output sorted, strictly distinct";
    prev = c.rtt;
    total += c.count;
  }
  EXPECT_DOUBLE_EQ(total, 45.0);
  EXPECT_GE(binned.front().rtt, config.classes.front().rtt);
  EXPECT_LE(binned.back().rtt, config.classes.back().rtt);
}

TEST(BinClassesTest, NoOpWhenUnderBudget) {
  FluidConfig config = dumbbell_config(15);
  const auto binned = bin_classes(config.classes, 15);
  ASSERT_EQ(binned.size(), 15u);
  for (std::size_t i = 0; i < binned.size(); ++i) {
    EXPECT_EQ(binned[i].rtt, config.classes[i].rtt);
    EXPECT_EQ(binned[i].count, config.classes[i].count);
  }
}

TEST(BinClassesTest, ExactCountMassPropertyOverRandomPopulations) {
  // Binning must preserve total flow count EXACTLY, not just to rounding:
  // integer counts sum without error below 2^53, and bin_classes uses
  // compensated accumulation so the output mass is the same integer. A
  // drifting Σcount would silently rescale goodput in every binned-1e6
  // fluid run. Fixed seed — failures reproduce.
  std::mt19937_64 rng(0xb1c1a55e5ull);
  std::uniform_int_distribution<int> n_classes(1, 5000);
  std::uniform_int_distribution<int> max_count(1, 4000);
  std::uniform_real_distribution<double> rtt_ms_dist(10.0, 800.0);
  std::uniform_int_distribution<int> budget_dist(1, 64);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = n_classes(rng);
    std::uniform_int_distribution<int> count_dist(1, max_count(rng));
    std::vector<FluidClass> classes;
    classes.reserve(static_cast<std::size_t>(n));
    double total_in = 0.0;
    for (int i = 0; i < n; ++i) {
      // A few duplicated RTTs per population exercises the exact-merge
      // path alongside quantization.
      const double rtt = (i % 7 == 0 && i > 0)
                             ? classes[static_cast<std::size_t>(i - 1)].rtt
                             : ms(rtt_ms_dist(rng));
      const double count = static_cast<double>(count_dist(rng));
      classes.push_back(FluidClass{rtt, count});
      total_in += count;  // integers: this sum is itself exact
    }
    const auto binned = bin_classes(classes, budget_dist(rng));
    double total_out = 0.0;
    double comp = 0.0;  // Neumaier, same as the implementation
    for (const FluidClass& c : binned) {
      const double t = total_out + c.count;
      comp += (std::abs(total_out) >= std::abs(c.count))
                  ? (total_out - t) + c.count
                  : (c.count - t) + total_out;
      total_out = t;
    }
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " classes " << n << " total "
                 << total_in << " binned to " << binned.size());
    EXPECT_EQ(total_out + comp, total_in);
  }
}

TEST(BinClassesTest, BinnedSolveTracksUnbinnedWithinTolerance) {
  // The fig. 6 quick point (γ = 0.5, T_extent 50 ms, R_attack 25 Mbps) on
  // 45 per-flow classes vs the same population binned to 8: the binned
  // run quantizes RTTs by at most one bin width, so its degradation must
  // stay within the fluid tier's own per-point agreement band.
  FluidControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  FluidAttack attack;
  attack.textent = ms(50);
  attack.rattack = mbps(25);
  attack.tspace = ms(116.667);
  const FluidConfig config = dumbbell_config(45);
  FluidConfig binned_config = config;
  binned_config.classes = bin_classes(config.classes, 8);
  ASSERT_LE(binned_config.classes.size(), 8u);

  const FluidResult base = solve(config, std::nullopt, control);
  const FluidResult hit = solve(config, attack, control);
  const FluidResult binned_base = solve(binned_config, std::nullopt, control);
  const FluidResult binned_hit = solve(binned_config, attack, control);

  const double gamma_full = 1.0 - hit.goodput_rate / base.goodput_rate;
  const double gamma_binned =
      1.0 - binned_hit.goodput_rate / binned_base.goodput_rate;
  EXPECT_NEAR(gamma_binned, gamma_full, kDegradationAbsTol);
  // Baseline utilization barely depends on the RTT fine structure.
  EXPECT_NEAR(binned_base.utilization, base.utilization, 0.05);
}

TEST(FluidConfigTest, ValidateRejectsNonsense) {
  FluidConfig config = dumbbell_config(15);
  config.classes.clear();
  EXPECT_THROW(config.validate(), ParameterError);
  config = dumbbell_config(15);
  config.dt_pulse = 0.0;
  EXPECT_THROW(config.validate(), ParameterError);
  config = dumbbell_config(15);
  config.bottleneck = 0.0;
  EXPECT_THROW(config.validate(), ParameterError);
}

TEST(FluidControlTest, SolveRejectsNonPositiveOrNanBinWidth) {
  // A zero width never advances the sampling instant and a negative one
  // sizes the bin vectors from a negative count: the control check must
  // stop both (and NaN) before the solver starts.
  const FluidConfig config = dumbbell_config(5);
  for (Time width : {0.0, -0.1, std::nan("")}) {
    FluidControl control;
    control.warmup = sec(1);
    control.measure = sec(2);
    control.bin_width = width;
    EXPECT_THROW(solve(config, std::nullopt, control), ParameterError)
        << "bin_width " << width;
  }
}

TEST(AimdBankTest, WindowsGrowWithoutLossAndHalveUnderPressure) {
  FluidConfig config = dumbbell_config(15);
  AimdBank bank(config);
  ASSERT_EQ(bank.size(), 15u);
  const double w0 = bank.window(0);
  // One clean second: slow-start growth, no episodes.
  Time now = 0.0;
  for (int i = 0; i < 1000; ++i, now += 0.001) {
    bank.step(now, 0.001, 0.0, 0.0, 0.0);
  }
  EXPECT_GT(bank.window(0), w0);
  EXPECT_EQ(bank.loss_events, 0u);
  const double w_grown = bank.window(0);
  // Heavy loss probability: pressure accumulates, an episode fires.
  for (int i = 0; i < 2000; ++i, now += 0.001) {
    bank.step(now, 0.001, 0.9, 0.0, 0.0);
  }
  EXPECT_GT(bank.loss_events + bank.timeouts, 0u);
  EXPECT_LT(bank.window(0), w_grown);
}

}  // namespace
}  // namespace pdos::fluid
