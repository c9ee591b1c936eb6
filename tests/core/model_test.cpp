#include "core/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/assert.hpp"

namespace pdos {
namespace {

VictimProfile paper_victim(int flows = 15) {
  VictimProfile victim;
  victim.aimd = AimdParams::new_reno();
  victim.spacket = 1040;
  victim.rbottle = mbps(15);
  victim.rtts = VictimProfile::even_rtts(flows, ms(20), ms(460));
  return victim;
}

TEST(Eq1Test, ConvergedCwndMatchesClosedForm) {
  // W∞ = a/(1-b) * T/(d*RTT); AIMD(1, 0.5), T = 2 s, RTT = 100 ms, d = 1.
  const double w = converged_cwnd(AimdParams::new_reno(), sec(2.0), ms(100));
  EXPECT_DOUBLE_EQ(w, (1.0 / 0.5) * (2.0 / (1.0 * 0.1)));  // = 40
  EXPECT_DOUBLE_EQ(w, 40.0);
}

TEST(Eq1Test, DelayedAcksHalveConvergedCwnd) {
  const double w1 = converged_cwnd(AimdParams::new_reno(), sec(1.0), ms(100));
  const double w2 =
      converged_cwnd(AimdParams::new_reno_delack(), sec(1.0), ms(100));
  EXPECT_DOUBLE_EQ(w2, w1 / 2.0);
}

TEST(Eq1Test, CwndRecursionFixedPointIsWInfinity) {
  const AimdParams aimd{1.0, 0.5, 1};
  const Time t = sec(1.5);
  const Time rtt = ms(80);
  const double w_inf = converged_cwnd(aimd, t, rtt);
  EXPECT_NEAR(cwnd_step(aimd, t, rtt, w_inf), w_inf, 1e-9);
}

TEST(Eq1Test, RecursionConvergesFromAnyStart) {
  const AimdParams aimd{1.0, 0.5, 1};
  const Time t = sec(2.0);
  const Time rtt = ms(200);
  const double w_inf = converged_cwnd(aimd, t, rtt);
  for (double w0 : {0.0, 1.0, 100.0, 1000.0}) {
    double w = w0;
    for (int i = 0; i < 60; ++i) w = cwnd_step(aimd, t, rtt, w);
    EXPECT_NEAR(w, w_inf, 1e-6) << "w0=" << w0;
  }
}

TEST(Eq1Test, FewPulsesSufficeForTypicalTcp) {
  // The paper (§3, proof of Lemma 2) cites [13]: AIMD(1, 0.5) converges in
  // fewer than 10 pulses. With b = 0.5 the distance to W∞ halves per pulse,
  // so the extreme corner (T_AIMD/RTT < 1, W∞ < 1 segment) needs a couple
  // more to meet a 5% relative tolerance of a sub-packet window.
  const AimdParams aimd{1.0, 0.5, 1};
  for (Time rtt : {ms(20), ms(100), ms(460)}) {
    for (Time t : {ms(200), sec(1.0), sec(2.0)}) {
      EXPECT_LE(pulses_to_converge(aimd, t, rtt, 64.0), 12)
          << "rtt=" << rtt << " t=" << t;
    }
  }
  // The typical regime the paper refers to (W∞ of a few segments or more).
  EXPECT_LE(pulses_to_converge(aimd, sec(1.0), ms(100), 64.0), 10);
}

TEST(Eq2Test, SteadyPhasePacketsMatchClosedForm) {
  // (a(1+b)/(2d(1-b))) (T/RTT)^2 per interval.
  const AimdParams aimd{1.0, 0.5, 1};
  const double pkts = flow_packets_steady(aimd, sec(1.0), ms(100));
  EXPECT_NEAR(pkts, (1.0 * 1.5 / (2.0 * 0.5)) * 10.0 * 10.0, 1e-9);
  EXPECT_NEAR(pkts, 150.0, 1e-9);
}

TEST(Eq2Test, ExactThroughputApproachesSteadyApproximation) {
  // Eq. (9) approximates Eq. (2) with W_n = W∞; once the transient is an
  // O(1) prefix of many pulses, per-interval averages converge.
  const AimdParams aimd{1.0, 0.5, 1};
  const Time t = sec(1.0);
  const Time rtt = ms(100);
  const double w1 = 60.0;
  const double steady = flow_packets_steady(aimd, t, rtt);
  const int n = 500;
  const double exact = flow_packets_exact(aimd, t, rtt, w1, n);
  EXPECT_NEAR(exact / ((n - 1) * steady), 1.0, 0.02);
}

TEST(Eq2Test, TransientFromLargeWindowSendsMoreThanSteady) {
  const AimdParams aimd{1.0, 0.5, 1};
  const Time t = sec(1.0);
  const Time rtt = ms(100);
  const double w_inf = converged_cwnd(aimd, t, rtt);
  const double from_large = flow_packets_exact(aimd, t, rtt, 10 * w_inf, 10);
  const double from_steady = flow_packets_exact(aimd, t, rtt, w_inf, 10);
  EXPECT_GT(from_large, from_steady);
}

TEST(Eq2Test, SinglePulseHasNoFreeIntervals) {
  // With N = 1 there are zero free-of-attack intervals: no packets.
  const AimdParams aimd{1.0, 0.5, 1};
  EXPECT_DOUBLE_EQ(flow_packets_exact(aimd, sec(1.0), ms(100), 30.0, 1),
                   0.0);
}

TEST(Eq2Test, PacketsMonotoneInPulseCount) {
  const AimdParams aimd{1.0, 0.5, 1};
  double prev = -1.0;
  for (int n = 1; n <= 40; n += 3) {
    const double pkts = flow_packets_exact(aimd, sec(1.0), ms(100), 30.0, n);
    EXPECT_GT(pkts, prev) << "n=" << n;
    prev = pkts;
  }
}

TEST(Eq2Test, TransientIntervalUsesDecayingWindow) {
  // First interval from W1 = 64 sends (b*64 + (a/2d)T/RTT) * T/RTT
  // packets; check the two-pulse case against that closed form.
  const AimdParams aimd{1.0, 0.5, 1};
  const Time t = sec(1.0);
  const Time rtt = ms(100);
  const double ratio = t / rtt;  // 10
  const double expected = (0.5 * 64.0 + 0.5 * ratio / 1.0) * ratio;
  EXPECT_NEAR(flow_packets_exact(aimd, t, rtt, 64.0, 2), expected, 1e-9);
}

TEST(Eq8Test, NormalThroughputIsCapacityTimesDuration) {
  // 15 Mbps for (N-1) * 2 s, in bytes.
  EXPECT_DOUBLE_EQ(normal_throughput_bytes(mbps(15), sec(2.0), 11),
                   15e6 * 10 * 2.0 / 8.0);
}

TEST(Eq9Test, AggregateSumsOverFlows) {
  VictimProfile victim = paper_victim(3);
  victim.rtts = {ms(100), ms(100), ms(100)};
  const double agg = attack_throughput_bytes(victim, sec(1.0), 2);
  const double single =
      flow_packets_steady(victim.aimd, sec(1.0), ms(100)) * 1040;
  EXPECT_NEAR(agg, 3.0 * single, 1e-6);
}

TEST(Eq10Test, DegradationEqualsOneMinusCpsiOverGamma) {
  // Γ computed from Ψ ratios must equal 1 − C_Ψ/γ (the paper's Prop. 2).
  const VictimProfile victim = paper_victim(15);
  const Time textent = ms(50);
  const BitRate rattack = mbps(25);
  const double c_attack = rattack / victim.rbottle;
  const double cpsi = c_psi(victim, textent, c_attack);
  for (double gamma : {0.3, 0.5, 0.7, 0.9}) {
    const Time period = textent * c_attack / gamma;  // Eq. (4) inverted
    const double direct = throughput_degradation(victim, period);
    EXPECT_NEAR(direct, 1.0 - cpsi / gamma, 1e-9) << "gamma=" << gamma;
  }
}

TEST(Eq10Test, DegradationClampedToZeroWhenModelPredictsNoDamage) {
  VictimProfile victim = paper_victim(15);
  // Enormous period: TCP recovers fully between pulses.
  EXPECT_DOUBLE_EQ(throughput_degradation(victim, sec(100.0)), 0.0);
}

TEST(Eq11Test, CpsiFactorsAsTextentCattackCvictim) {
  const VictimProfile victim = paper_victim(25);
  const double cv = c_victim(victim);
  EXPECT_NEAR(c_psi(victim, ms(75), 2.0), 0.075 * 2.0 * cv, 1e-12);
}

TEST(Eq11Test, CpsiScalesLinearlyInParameters) {
  const VictimProfile victim = paper_victim(15);
  const double base = c_psi(victim, ms(50), 1.0);
  EXPECT_NEAR(c_psi(victim, ms(100), 1.0), 2.0 * base, 1e-12);
  EXPECT_NEAR(c_psi(victim, ms(50), 3.0), 3.0 * base, 1e-12);
}

TEST(Eq18Test, CvictimMatchesManualEvaluation) {
  VictimProfile victim;
  victim.aimd = AimdParams{1.0, 0.5, 2};
  victim.spacket = 1040;
  victim.rbottle = mbps(10);
  victim.rtts = {ms(150), ms(150)};
  const double expected = 4.0 * 1.0 * 1.5 * 1040.0 /
                          (0.5 * 2.0 * 10e6) * (2.0 / (0.15 * 0.15));
  EXPECT_NEAR(c_victim(victim), expected, 1e-9);
}

TEST(GainTest, ZeroOutsideFeasibleRegion) {
  EXPECT_DOUBLE_EQ(attack_gain(0.1, 0.2, 1.0), 0.0);  // gamma <= C_Psi
  EXPECT_DOUBLE_EQ(attack_gain(1.0, 0.2, 1.0), 0.0);  // flooding boundary
  EXPECT_DOUBLE_EQ(attack_gain(1.3, 0.2, 1.0), 0.0);
}

TEST(GainTest, PositiveInsideFeasibleRegion) {
  for (double gamma = 0.25; gamma < 1.0; gamma += 0.1) {
    EXPECT_GT(attack_gain(gamma, 0.2, 1.0), 0.0) << gamma;
  }
}

TEST(GainTest, RiskTermMatchesFig4Shapes) {
  // Risk-averse curves lie below risk-loving ones for all gamma in (0,1).
  for (double gamma = 0.1; gamma < 1.0; gamma += 0.2) {
    EXPECT_LT(risk_term(gamma, 2.0), risk_term(gamma, 1.0));
    EXPECT_LT(risk_term(gamma, 1.0), risk_term(gamma, 0.5));
  }
  // Limiting cases from the paper: kappa -> 0 gives 1 (risk ignored).
  EXPECT_DOUBLE_EQ(risk_term(0.5, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(risk_term(0.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(risk_term(1.0, 5.0), 0.0);
}

TEST(GainTest, GammaGridIsEvenlySpacedFromTheAutomaticLowerEnd) {
  // lo <= 0 starts the grid at max(0.1, C_Psi + 0.02); hi defaults to 0.95.
  const std::vector<double> grid = gamma_grid(0.3, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_EQ(grid.front(), 0.3 + 0.02);
  EXPECT_DOUBLE_EQ(grid.back(), 0.95);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_NEAR(grid[i] - grid[i - 1], (0.95 - 0.32) / 4, 1e-12);
  }
  EXPECT_EQ(gamma_grid(0.01, 2).front(), 0.1);
  const std::vector<double> explicit_ends = gamma_grid(0.3, 3, 0.4, 0.8);
  EXPECT_EQ(explicit_ends.front(), 0.4);
  EXPECT_DOUBLE_EQ(explicit_ends[1], 0.6);
  EXPECT_DOUBLE_EQ(explicit_ends.back(), 0.8);
  EXPECT_THROW(gamma_grid(0.3, 1), ParameterError);
}

TEST(ModelValidationTest, BadParametersThrow) {
  const VictimProfile victim = paper_victim();
  EXPECT_THROW(converged_cwnd(AimdParams{0.0, 0.5, 1}, 1.0, 0.1),
               ParameterError);
  EXPECT_THROW(converged_cwnd(AimdParams::new_reno(), 0.0, 0.1),
               ParameterError);
  EXPECT_THROW(converged_cwnd(AimdParams::new_reno(), 1.0, 0.0),
               ParameterError);
  EXPECT_THROW(normal_throughput_bytes(0.0, 1.0, 5), ParameterError);
  EXPECT_THROW(normal_throughput_bytes(mbps(15), 1.0, 1), ParameterError);
  EXPECT_THROW(c_psi(victim, 0.0, 1.0), ParameterError);
  EXPECT_THROW(attack_gain(0.5, -0.1, 1.0), ParameterError);
  EXPECT_THROW(risk_term(1.5, 1.0), ParameterError);
}

TEST(VictimProfileTest, EvenRttsEndpoints) {
  const auto rtts = VictimProfile::even_rtts(15, ms(20), ms(460));
  ASSERT_EQ(rtts.size(), 15u);
  EXPECT_DOUBLE_EQ(rtts.front(), 0.02);
  EXPECT_DOUBLE_EQ(rtts.back(), 0.46);
  for (std::size_t i = 1; i < rtts.size(); ++i)
    EXPECT_GT(rtts[i], rtts[i - 1]);
}

TEST(VictimProfileTest, InverseRttSqSum) {
  VictimProfile victim = paper_victim(2);
  victim.rtts = {ms(100), ms(200)};
  EXPECT_NEAR(victim.inverse_rtt_sq_sum(), 100.0 + 25.0, 1e-9);
}

TEST(VictimProfileTest, RiskClassification) {
  EXPECT_EQ(classify_risk(0.5), RiskClass::kRiskLoving);
  EXPECT_EQ(classify_risk(1.0), RiskClass::kRiskNeutral);
  EXPECT_EQ(classify_risk(3.0), RiskClass::kRiskAverse);
  EXPECT_THROW(classify_risk(0.0), ParameterError);
}

}  // namespace
}  // namespace pdos
