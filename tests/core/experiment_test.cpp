#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/model.hpp"
#include "util/assert.hpp"

namespace pdos {
namespace {

RunControl quick_control() {
  RunControl control;
  control.warmup = sec(4);
  control.measure = sec(8);
  return control;
}

TEST(ScenarioConfigTest, Ns2DumbbellMatchesPaperSection41) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(25);
  EXPECT_EQ(config.num_flows, 25);
  EXPECT_DOUBLE_EQ(config.bottleneck, mbps(15));
  EXPECT_DOUBLE_EQ(config.access, mbps(50));
  ASSERT_EQ(config.rtts.size(), 25u);
  EXPECT_DOUBLE_EQ(config.rtts.front(), ms(20));
  EXPECT_DOUBLE_EQ(config.rtts.back(), ms(460));
  EXPECT_EQ(config.queue, QueueKind::kRed);
  EXPECT_DOUBLE_EQ(config.tcp.rto_min, sec(1.0));  // ns-2 minRTO
  EXPECT_EQ(config.tcp.aimd.d, 1);
  EXPECT_NO_THROW(config.validate());
}

TEST(ScenarioConfigTest, TestbedMatchesPaperSection42) {
  const ScenarioConfig config = ScenarioConfig::testbed();
  EXPECT_EQ(config.num_flows, 10);
  EXPECT_DOUBLE_EQ(config.bottleneck, mbps(10));
  EXPECT_DOUBLE_EQ(config.tcp.rto_min, ms(200));  // Linux Fedora RTO_min
  EXPECT_EQ(config.tcp.aimd.d, 2);                // delayed ACKs
  for (Time rtt : config.rtts) EXPECT_DOUBLE_EQ(rtt, ms(150));
  // B = RTT * R_bottle = 0.15 * 10e6 / 8 bytes -> / 1040 packets = 180.
  EXPECT_EQ(config.buffer_packets, 180u);
  EXPECT_NO_THROW(config.validate());
}

TEST(ScenarioConfigTest, VictimProfileMirrorsScenario) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  const VictimProfile victim = config.victim_profile();
  EXPECT_EQ(victim.rtts, config.rtts);
  EXPECT_DOUBLE_EQ(victim.rbottle, config.bottleneck);
  EXPECT_EQ(victim.spacket, config.tcp.mss + TcpSenderConfig::kHeaderBytes);
  EXPECT_NO_THROW(victim.validate());
}

TEST(ScenarioConfigTest, ValidationCatchesMismatchedRtts) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  config.rtts.pop_back();
  EXPECT_THROW(config.validate(), ParameterError);
  config = ScenarioConfig::ns2_dumbbell(15);
  config.rtts[0] = ms(1);  // below bottleneck propagation round trip
  EXPECT_THROW(config.validate(), ParameterError);
}

TEST(RunScenarioTest, BaselineNearlySaturatesBottleneck) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  // Long enough for the 460 ms RTT flows to leave slow start.
  RunControl control;
  control.warmup = sec(8);
  control.measure = sec(15);
  const RunResult result = run_scenario(config, std::nullopt, control);
  EXPECT_GT(result.utilization, 0.85);  // Lemma 1's premise
  EXPECT_LE(result.utilization, 1.0);
  EXPECT_EQ(result.attack_packets_sent, 0u);
}

TEST(RunScenarioTest, DeterministicForFixedSeed) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(5);
  const RunResult a = run_scenario(config, std::nullopt, quick_control());
  const RunResult b = run_scenario(config, std::nullopt, quick_control());
  EXPECT_EQ(a.goodput_bytes, b.goodput_bytes);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(RunScenarioTest, SeedChangesOutcomeSlightly) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(5);
  const RunResult a = run_scenario(config, std::nullopt, quick_control());
  config.seed = 999;
  const RunResult b = run_scenario(config, std::nullopt, quick_control());
  EXPECT_NE(a.goodput_bytes, b.goodput_bytes);
  // ... but both saturate the link.
  EXPECT_GT(a.utilization, 0.8);
  EXPECT_GT(b.utilization, 0.8);
}

TEST(RunScenarioTest, AttackReducesGoodput) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  const RunControl control = quick_control();
  const RunResult base = run_scenario(config, std::nullopt, control);
  PulseTrain train;
  train.textent = ms(75);
  train.tspace = ms(225);
  train.rattack = mbps(30);
  const RunResult attacked = run_scenario(config, train, control);
  EXPECT_LT(attacked.goodput_bytes, base.goodput_bytes / 2);
  EXPECT_GT(attacked.attack_packets_sent, 100u);
  EXPECT_GT(attacked.bottleneck_queue.dropped, 0u);
}

TEST(RunScenarioTest, IncomingBinsCoverWholeRunAndCarryAttackBytes) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(5);
  RunControl control = quick_control();
  control.bin_width = ms(100);
  PulseTrain train;
  train.textent = ms(50);
  train.tspace = ms(950);
  train.rattack = mbps(40);
  const RunResult result = run_scenario(config, train, control);
  ASSERT_EQ(result.incoming_bins.size(),
            static_cast<std::size_t>(control.horizon() / control.bin_width));
  const double attack_bytes =
      std::accumulate(result.attack_bins.begin(), result.attack_bins.end(),
                      0.0);
  const double sent =
      static_cast<double>(result.attack_packets_sent) * 1040.0;
  // All attack packets reach the bottleneck (access link is uncongested).
  EXPECT_NEAR(attack_bytes, sent, 0.02 * sent + 5000.0);
  // Attack bins are a subset of incoming bins.
  for (std::size_t i = 0; i < result.attack_bins.size(); ++i) {
    EXPECT_LE(result.attack_bins[i], result.incoming_bins[i] + 1e-9);
  }
}

TEST(RunScenarioTest, CwndTraceRecordsSawtooth) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(5);
  RunControl control = quick_control();
  control.traced_flow = 0;
  PulseTrain train;
  train.textent = ms(50);
  train.tspace = ms(1950);
  train.rattack = mbps(60);
  const RunResult result = run_scenario(config, train, control);
  EXPECT_GT(result.cwnd_trace.size(), 100u);
  // The trace must contain decreases (attack epochs) and increases.
  bool saw_up = false;
  bool saw_down = false;
  for (std::size_t i = 1; i < result.cwnd_trace.size(); ++i) {
    if (result.cwnd_trace[i].second > result.cwnd_trace[i - 1].second)
      saw_up = true;
    if (result.cwnd_trace[i].second < result.cwnd_trace[i - 1].second)
      saw_down = true;
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
}

TEST(RunScenarioTest, DropTailQueueAlsoSupported) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(10);
  config.queue = QueueKind::kDropTail;
  const RunResult result = run_scenario(config, std::nullopt, quick_control());
  EXPECT_GT(result.utilization, 0.85);
  EXPECT_EQ(result.red_early_drops, 0u);
}

TEST(RunScenarioTest, RedStatsExposedUnderAttack) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  PulseTrain train;
  train.textent = ms(100);
  train.tspace = ms(400);
  train.rattack = mbps(40);
  const RunResult result = run_scenario(config, train, quick_control());
  EXPECT_GT(result.red_early_drops + result.red_forced_drops, 0u);
  EXPECT_EQ(result.red_early_drops + result.red_forced_drops,
            result.bottleneck_queue.dropped);
}

TEST(RunScenarioTest, InvalidControlRejected) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(5);
  RunControl control;
  control.measure = 0.0;
  EXPECT_THROW(run_scenario(config, std::nullopt, control), ParameterError);
  control = quick_control();
  control.traced_flow = 99;
  EXPECT_THROW(run_scenario(config, std::nullopt, control), ParameterError);
}

TEST(RunScenarioTest, FluidBackendRejectsNonPositiveOrNanBinWidth) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(5);
  config.backend = Backend::kFluid;
  for (Time width : {0.0, -0.1, std::nan("")}) {
    RunControl control = quick_control();
    control.bin_width = width;
    EXPECT_THROW(run_scenario(config, std::nullopt, control), ParameterError)
        << "bin_width " << width;
  }
}

TEST(MeasureGainTest, GainComposesDegradationAndRisk) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  const RunControl control = quick_control();
  const BitRate baseline = measure_baseline(config, control);
  ASSERT_GT(baseline, 0.0);
  PulseTrain train = PulseTrain::from_gamma(ms(75), mbps(30), 0.5, mbps(15));
  const GainMeasurement point = measure_gain(config, train, 2.0, control,
                                             baseline);
  EXPECT_NEAR(point.gamma, 0.5, 1e-9);
  EXPECT_NEAR(point.gain, point.degradation * 0.25, 1e-9);  // (1-0.5)^2
  EXPECT_GT(point.degradation, 0.0);
  EXPECT_LE(point.degradation, 1.0);
}

TEST(RunScenarioTest, CrossTrafficConsumesBandwidth) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(10);
  const RunResult clean = run_scenario(config, std::nullopt, quick_control());
  config.cross_traffic_rate = mbps(5);
  const RunResult crossed =
      run_scenario(config, std::nullopt, quick_control());
  // TCP must cede a substantial share to the unresponsive source, but the
  // link should still be highly utilized overall.
  EXPECT_LT(crossed.goodput_rate, clean.goodput_rate - mbps(2));
  EXPECT_GT(crossed.goodput_rate, mbps(4));
}

TEST(RunScenarioTest, AttackStillBitesUnderCrossTraffic) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(10);
  config.cross_traffic_rate = mbps(2);
  const RunControl control = quick_control();
  const BitRate baseline = measure_baseline(config, control);
  PulseTrain train = PulseTrain::from_gamma(ms(75), mbps(30), 0.6, mbps(15));
  const GainMeasurement point =
      measure_gain(config, train, 1.0, control, baseline);
  EXPECT_GT(point.degradation, 0.3);
}

TEST(RunScenarioTest, JitterRisesUnderAttack) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(10);
  RunControl control;
  control.warmup = sec(6);
  control.measure = sec(15);
  const RunResult clean = run_scenario(config, std::nullopt, control);
  PulseTrain train = PulseTrain::from_gamma(ms(75), mbps(30), 0.5, mbps(15));
  const RunResult attacked = run_scenario(config, train, control);
  // §2.3: the attack increases delivery jitter.
  EXPECT_GT(attacked.mean_delivery_jitter, clean.mean_delivery_jitter);
}

TEST(RunScenarioTest, PerFlowGoodputSumsToAggregate) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(10);
  const RunResult result = run_scenario(config, std::nullopt, quick_control());
  ASSERT_EQ(result.per_flow_goodput.size(), 10u);
  Bytes sum = 0;
  for (Bytes b : result.per_flow_goodput) sum += b;
  EXPECT_EQ(sum, result.goodput_bytes);
  EXPECT_GT(result.fairness_index, 0.0);
  EXPECT_LE(result.fairness_index, 1.0);
}

TEST(RunScenarioTest, QuasiGlobalSyncDegradesEqualRttFlowsUniformly) {
  // A corollary of §2.3's quasi-global synchronization: because every
  // pulse hits all flows *simultaneously*, equal-RTT victims are degraded
  // nearly uniformly — the AIMD-based attack leaves no per-flow fairness
  // fingerprint for a detector to key on, unlike a targeted attack.
  const ScenarioConfig config = ScenarioConfig::testbed(10);
  RunControl control;
  control.warmup = sec(6);
  control.measure = sec(15);
  const RunResult clean = run_scenario(config, std::nullopt, control);
  EXPECT_GT(clean.fairness_index, 0.9);
  PulseTrain train = PulseTrain::from_gamma(ms(150), mbps(30), 0.5, mbps(10));
  const RunResult attacked = run_scenario(config, train, control);
  // Throughput halves or worse...
  EXPECT_LT(attacked.goodput_rate, 0.7 * clean.goodput_rate);
  // ...yet the allocation stays nearly as fair as the clean run.
  EXPECT_GT(attacked.fairness_index, clean.fairness_index - 0.1);
}

TEST(RunScenarioTest, QueueOccupancySampledEveryBin) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(5);
  RunControl control = quick_control();
  control.bin_width = ms(100);
  const RunResult result = run_scenario(config, std::nullopt, control);
  const auto expected_samples =
      static_cast<std::size_t>(control.horizon() / control.bin_width);
  EXPECT_NEAR(static_cast<double>(result.queue_occupancy.size()),
              static_cast<double>(expected_samples), 2.0);
  EXPECT_EQ(result.queue_occupancy.size(), result.red_avg_samples.size());
  for (double q : result.queue_occupancy) {
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, static_cast<double>(config.buffer_packets));
  }
}

TEST(RunScenarioTest, PulsesSpikeQueueAboveRedAverage) {
  // The AQM transient: during a pulse the instantaneous queue runs far
  // ahead of RED's EWMA estimate.
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(10);
  PulseTrain train;
  train.textent = ms(100);
  train.tspace = ms(900);
  train.rattack = mbps(60);
  const RunResult result = run_scenario(config, train, quick_control());
  double max_excess = 0.0;
  for (std::size_t i = 0; i < result.queue_occupancy.size(); ++i) {
    max_excess = std::max(
        max_excess, result.queue_occupancy[i] - result.red_avg_samples[i]);
  }
  EXPECT_GT(max_excess, 50.0);  // transient overshoot in packets
}

TEST(MeasureGainTest, RejectsZeroBaseline) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(5);
  PulseTrain train;
  EXPECT_THROW(measure_gain(config, train, 1.0, quick_control(), 0.0),
               ParameterError);
}

TEST(BackendNamesTest, RoundTrip) {
  for (Backend b : {Backend::kFull, Backend::kFast, Backend::kFluid}) {
    const auto parsed = parse_backend(backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(parse_backend("hybrid").has_value());
  EXPECT_FALSE(parse_backend("warp").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
}

}  // namespace
}  // namespace pdos
