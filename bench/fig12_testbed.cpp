// Reproduces Fig. 12: test-bed attack gains. 10 victim flows through a
// 10 Mbps / 150 ms Dummynet-style bottleneck with the paper's RED
// parameters; T_extent = 150 ms; R_attack in {15, 20, 30} Mbps.
//
// Expected shape (§4.2): all three curves follow the analysis;
// R_attack = 20 Mbps is the normal-gain case, 30 Mbps is under-estimated
// by the analysis (over-gain), 15 Mbps is over-estimated (under-gain).
#include <cstdio>

#include "common.hpp"

using namespace pdos;

int main(int argc, char** argv) {
  bench::Mode mode = bench::Mode::from_args(argc, argv);
  // The 10-flow test-bed is cheap to simulate; use a longer window even in
  // quick mode so the under/normal/over-gain regimes classify stably.
  if (!mode.full) mode.control.measure = sec(25);
  std::printf("# Fig. 12: test-bed experiment (%s mode)\n", mode.name());

  const ScenarioConfig scenario = ScenarioConfig::testbed(10);
  const BitRate baseline = measure_baseline(scenario, mode.control);
  std::printf("# 10 flows, RED(min=%.0f, max=%.0f, wq=0.002, maxp=0.1, "
              "gentle), B=%zu pkts, baseline %.2f Mbps\n",
              0.2 * static_cast<double>(scenario.buffer_packets),
              0.8 * static_cast<double>(scenario.buffer_packets),
              scenario.buffer_packets, to_mbps(baseline));

  const Time textent = ms(150);
  std::vector<double> errors;
  for (BitRate rattack : {mbps(15), mbps(20), mbps(30)}) {
    const double cpsi = c_psi(scenario.victim_profile(), textent,
                              rattack / scenario.bottleneck);
    const double hi = std::min(0.95, rattack / scenario.bottleneck - 0.01);
    const auto gammas = gamma_grid(cpsi, mode.gamma_points,
                                   std::max(0.08, cpsi + 0.02), hi);
    const auto rows = bench::gain_curve(scenario, textent, rattack, 1.0,
                                        gammas, mode.control, baseline);
    char label[128];
    std::snprintf(label, sizeof(label),
                  "R_attack = %.0f Mbps (C_psi = %.3f)", to_mbps(rattack),
                  cpsi);
    bench::print_gain_header(label);
    bench::print_gain_rows(rows);
    double err = 0.0;
    for (const auto& row : rows) err += row.measured_gain - row.analytic_gain;
    err /= rows.empty() ? 1.0 : static_cast<double>(rows.size());
    errors.push_back(err);
    std::printf("# regime: %s (mean sim-analytic gain error %+.3f)\n\n",
                bench::classify_regime(rows), err);
  }
  std::printf("# section 4.2 ordering check — the analysis over-estimates "
              "at low R_attack\n# and under-estimates at high R_attack, so "
              "err(15M) <= err(20M) <= err(30M): %s\n",
              (errors[0] <= errors[1] + 0.02 && errors[1] <= errors[2] + 0.02)
                  ? "HOLDS"
                  : "VIOLATED");
  return 0;
}
