// The paper's analytical model of TCP throughput under an AIMD-based PDoS
// attack (Luo & Chang, DSN 2005, §2-§3).
//
// Equation index:
//   Eq. (1)  converged_cwnd          W∞ = (a/(1-b)) * T_AIMD / (d * RTT)
//   Eq. (2)  flow_packets_exact      transient + steady packets of one flow
//   Eq. (4)  gamma                   normalized average attack rate
//   Eq. (7)  gamma = C_attack/(1+μ)  (see PulseTrain helpers)
//   Eq. (8)  normal_throughput_bytes Ψ_normal
//   Eq. (9)  attack_throughput_bytes Ψ_attack (steady-state approximation)
//   Eq. (10) throughput_degradation  Γ = 1 − C_Ψ/γ
//   Eq. (11) c_psi
//   Eq. (5/12) attack_gain           G = Γ · (1 − γ)^κ
//   Eq. (18) c_victim
//
// Conventions: rates in bps, times in seconds, sizes in bytes, windows in
// segments — matching the paper exactly (its S_packet is bytes, R_bottle is
// bps, and the factor 4 in Eq. 11 absorbs the bits/bytes conversion 8/2).
#pragma once

#include <vector>

#include "core/params.hpp"
#include "util/units.hpp"

namespace pdos {

/// Eq. (1): the cwnd value the attack converges to.
double converged_cwnd(const AimdParams& aimd, Time t_aimd, Time rtt);

/// One step of the cwnd recursion W' = b·W + (a/d)·T_AIMD/RTT that underlies
/// Eq. (1) (each period: multiplicative drop, then additive growth).
double cwnd_step(const AimdParams& aimd, Time t_aimd, Time rtt, double w);

/// Minimum number of pulses to bring cwnd from w1 to within `tolerance`
/// (relative) of W∞ — the paper's N_attack. Returns at least 1.
int pulses_to_converge(const AimdParams& aimd, Time t_aimd, Time rtt,
                       double w1, double tolerance = 0.05);

/// Eq. (2): packets sent by one victim flow over an N-pulse attack, using
/// the exact cwnd recursion for the transient phase. `w1` is the cwnd just
/// before the first pulse.
double flow_packets_exact(const AimdParams& aimd, Time t_aimd, Time rtt,
                          double w1, int n_pulses);

/// Eq. (9) for a single flow: steady-state packets per free-of-attack
/// interval, (bW∞ + (a/2d)·T/RTT) · T/RTT = (a(1+b)/(2d(1-b))) (T/RTT)^2.
double flow_packets_steady(const AimdParams& aimd, Time t_aimd, Time rtt);

/// Eq. (8): aggregate no-attack throughput in bytes over (N−1) periods.
double normal_throughput_bytes(BitRate rbottle, Time t_aimd, int n_pulses);

/// Eq. (9): aggregate under-attack throughput in bytes over (N−1) periods.
double attack_throughput_bytes(const VictimProfile& victim, Time t_aimd,
                               int n_pulses);

/// Eq. (3)/(10): Γ = 1 − Ψ_attack/Ψ_normal, computed from the closed forms.
/// Clamped to [0, 1) — the model loses meaning once it predicts Γ <= 0.
double throughput_degradation(const VictimProfile& victim, Time t_aimd);

/// Eq. (11): C_Ψ, with C_attack = R_attack / R_bottle.
double c_psi(const VictimProfile& victim, Time textent, double c_attack);

/// Eq. (18): C_victim; note C_Ψ = T_extent · C_attack · C_victim.
double c_victim(const VictimProfile& victim);

/// Eq. (5)/(12): attack gain G(γ) = (1 − C_Ψ/γ)(1 − γ)^κ for γ in (C_Ψ, 1);
/// 0 outside that interval (the attack either does no predicted damage or
/// is a flooding attack).
double attack_gain(double gamma, double cpsi, double kappa);

/// The risk term (1 − γ)^κ alone (Fig. 4).
double risk_term(double gamma, double kappa);

/// The γ grid that sweeps, γ searches and the figures scan: `points` (≥ 2)
/// values evenly spaced on [lo, hi], both ends included. `lo` ≤ 0 picks
/// the automatic lower end max(0.1, C_Ψ + 0.02), just right of γ = C_Ψ,
/// where the gain is 0 (Eq. 12); the default [auto, 0.95] is SweepSpec's
/// `gamma = auto` grid and GammaSearch's.
std::vector<double> gamma_grid(double cpsi, int points, double lo = 0.0,
                               double hi = 0.95);

}  // namespace pdos
