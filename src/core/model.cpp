#include "core/model.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace pdos {

namespace {
void check_period(Time t_aimd) {
  PDOS_REQUIRE(t_aimd > 0.0, "model: T_AIMD must be > 0");
}
void check_rtt(Time rtt) { PDOS_REQUIRE(rtt > 0.0, "model: RTT must be > 0"); }
}  // namespace

double converged_cwnd(const AimdParams& aimd, Time t_aimd, Time rtt) {
  aimd.validate();
  check_period(t_aimd);
  check_rtt(rtt);
  return aimd.a / (1.0 - aimd.b) * t_aimd /
         (static_cast<double>(aimd.d) * rtt);
}

double cwnd_step(const AimdParams& aimd, Time t_aimd, Time rtt, double w) {
  aimd.validate();
  check_period(t_aimd);
  check_rtt(rtt);
  PDOS_REQUIRE(w >= 0.0, "cwnd_step: window must be >= 0");
  return aimd.b * w +
         aimd.a / static_cast<double>(aimd.d) * t_aimd / rtt;
}

int pulses_to_converge(const AimdParams& aimd, Time t_aimd, Time rtt,
                       double w1, double tolerance) {
  PDOS_REQUIRE(tolerance > 0.0, "pulses_to_converge: tolerance must be > 0");
  const double w_inf = converged_cwnd(aimd, t_aimd, rtt);
  double w = w1;
  int n = 1;
  // The recursion contracts by factor b each step; bound the loop anyway.
  constexpr int kMaxPulses = 10000;
  while (std::abs(w - w_inf) > tolerance * w_inf && n < kMaxPulses) {
    w = cwnd_step(aimd, t_aimd, rtt, w);
    ++n;
  }
  return n;
}

double flow_packets_exact(const AimdParams& aimd, Time t_aimd, Time rtt,
                          double w1, int n_pulses) {
  PDOS_REQUIRE(n_pulses >= 1, "flow_packets_exact: need >= 1 pulse");
  const int n_attack = pulses_to_converge(aimd, t_aimd, rtt, w1);
  const double ratio = t_aimd / rtt;
  const double add_half = aimd.a / (2.0 * aimd.d) * ratio;

  // Transient phase: N_attack − 1 free-of-attack intervals with the exact
  // window recursion (first summand of Eq. 2).
  double packets = 0.0;
  double w = w1;
  const int transient_intervals = std::min(n_attack, n_pulses) - 1;
  for (int i = 0; i < transient_intervals; ++i) {
    packets += (aimd.b * w + add_half) * ratio;
    w = cwnd_step(aimd, t_aimd, rtt, w);
  }

  // Steady phase: N − N_attack sawtooth periods at W∞ (second summand).
  const int steady_intervals = std::max(0, n_pulses - n_attack);
  packets += flow_packets_steady(aimd, t_aimd, rtt) *
             static_cast<double>(steady_intervals);
  return packets;
}

double flow_packets_steady(const AimdParams& aimd, Time t_aimd, Time rtt) {
  aimd.validate();
  check_period(t_aimd);
  check_rtt(rtt);
  const double ratio = t_aimd / rtt;
  return aimd.a * (1.0 + aimd.b) /
         (2.0 * static_cast<double>(aimd.d) * (1.0 - aimd.b)) * ratio * ratio;
}

double normal_throughput_bytes(BitRate rbottle, Time t_aimd, int n_pulses) {
  PDOS_REQUIRE(rbottle > 0.0, "normal_throughput: rbottle must be > 0");
  check_period(t_aimd);
  PDOS_REQUIRE(n_pulses >= 2, "normal_throughput: need >= 2 pulses");
  return rbottle * static_cast<double>(n_pulses - 1) * t_aimd / 8.0;
}

double attack_throughput_bytes(const VictimProfile& victim, Time t_aimd,
                               int n_pulses) {
  victim.validate();
  check_period(t_aimd);
  PDOS_REQUIRE(n_pulses >= 2, "attack_throughput: need >= 2 pulses");
  double packets = 0.0;
  for (Time rtt : victim.rtts) {
    packets += flow_packets_steady(victim.aimd, t_aimd, rtt);
  }
  return packets * static_cast<double>(n_pulses - 1) *
         static_cast<double>(victim.spacket);
}

double throughput_degradation(const VictimProfile& victim, Time t_aimd) {
  // Γ = 1 − Ψ_attack/Ψ_normal with the (N−1) factors cancelling.
  const double psi_attack = attack_throughput_bytes(victim, t_aimd, 2);
  const double psi_normal =
      normal_throughput_bytes(victim.rbottle, t_aimd, 2);
  const double gamma_deg = 1.0 - psi_attack / psi_normal;
  return std::clamp(gamma_deg, 0.0, 1.0);
}

double c_psi(const VictimProfile& victim, Time textent, double c_attack) {
  victim.validate();
  PDOS_REQUIRE(textent > 0.0, "c_psi: textent must be > 0");
  PDOS_REQUIRE(c_attack > 0.0, "c_psi: c_attack must be > 0");
  return textent * c_attack * c_victim(victim);
}

double c_victim(const VictimProfile& victim) {
  victim.validate();
  const AimdParams& aimd = victim.aimd;
  return 4.0 * aimd.a * (1.0 + aimd.b) *
         static_cast<double>(victim.spacket) /
         ((1.0 - aimd.b) * static_cast<double>(aimd.d) * victim.rbottle) *
         victim.inverse_rtt_sq_sum();
}

double attack_gain(double gamma, double cpsi, double kappa) {
  PDOS_REQUIRE(cpsi > 0.0, "attack_gain: c_psi must be > 0");
  PDOS_REQUIRE(kappa >= 0.0, "attack_gain: kappa must be >= 0");
  if (gamma <= cpsi || gamma >= 1.0) return 0.0;
  return (1.0 - cpsi / gamma) * risk_term(gamma, kappa);
}

double risk_term(double gamma, double kappa) {
  PDOS_REQUIRE(gamma >= 0.0 && gamma <= 1.0,
               "risk_term: gamma must be in [0, 1]");
  PDOS_REQUIRE(kappa >= 0.0, "risk_term: kappa must be >= 0");
  if (kappa == 0.0) return 1.0;
  return std::pow(1.0 - gamma, kappa);
}

std::vector<double> gamma_grid(double cpsi, int points, double lo,
                               double hi) {
  PDOS_REQUIRE(points >= 2, "gamma_grid: need at least 2 points");
  if (lo <= 0.0) lo = std::max(0.1, cpsi + 0.02);
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    grid.push_back(lo + (hi - lo) * i / (points - 1));
  }
  return grid;
}

}  // namespace pdos
