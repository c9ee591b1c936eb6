// Reproduces Fig. 10: the relationship between PDoS attacks and shrew
// attacks. Three configurations are swept over gamma:
//   R_attack = 30 Mbps, T_extent = 100 ms   (normal-gain)
//   R_attack = 40 Mbps, T_extent =  75 ms   (over-gain)
//   R_attack = 50 Mbps, T_extent =  50 ms   (under-gain)
// Points whose attack period T_AIMD lands on a shrew harmonic minRTO/n are
// marked '*': there the simulated gain exceeds the analytical prediction
// because flows are pinned in timeout, which the model ignores.
#include <algorithm>
#include <cstdio>

#include "attack/shrew.hpp"
#include "common.hpp"

using namespace pdos;

namespace {

// Gammas that place T_AIMD exactly on minRTO/n (Eq. 4 inverted).
std::vector<double> shrew_gammas(Time textent, BitRate rattack,
                                 BitRate rbottle, Time min_rto) {
  std::vector<double> gammas;
  for (int n = 1; n <= 3; ++n) {
    const double gamma =
        textent * (rattack / rbottle) / shrew_period(min_rto, n);
    if (gamma > 0.0 && gamma < 1.0) gammas.push_back(gamma);
  }
  return gammas;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Mode mode = bench::Mode::from_args(argc, argv);
  std::printf("# Fig. 10: PDoS vs shrew attacks (%s mode); ns-2 minRTO=1s\n",
              mode.name());

  const ScenarioConfig scenario = ScenarioConfig::ns2_dumbbell(15);
  const BitRate baseline = measure_baseline(scenario, mode.control);
  std::printf("# 15 flows, baseline %.2f Mbps\n", to_mbps(baseline));

  struct Config {
    BitRate rattack;
    Time textent;
  };
  const Config configs[] = {
      {mbps(30), ms(100)}, {mbps(40), ms(75)}, {mbps(50), ms(50)}};

  for (const auto& config : configs) {
    const double cpsi = c_psi(scenario.victim_profile(), config.textent,
                              config.rattack / scenario.bottleneck);
    // Regular grid plus the exact shrew gammas.
    std::vector<double> gammas = gamma_grid(cpsi, mode.gamma_points);
    for (double g : shrew_gammas(config.textent, config.rattack,
                                 scenario.bottleneck,
                                 scenario.tcp.rto_min)) {
      gammas.push_back(g);
    }
    std::sort(gammas.begin(), gammas.end());
    const auto rows = bench::gain_curve(scenario, config.textent,
                                        config.rattack, 1.0, gammas,
                                        mode.control, baseline);
    char label[128];
    std::snprintf(label, sizeof(label),
                  "R_attack = %.0f Mbps, T_extent = %.0f ms (C_psi = %.3f); "
                  "'*' = shrew point",
                  to_mbps(config.rattack), to_ms(config.textent), cpsi);
    bench::print_gain_header(label);
    bench::print_gain_rows(rows);

    // The figure's observation: shrew points beat the analytic curve.
    double shrew_excess = 0.0;
    int shrew_count = 0;
    for (const auto& row : rows) {
      if (row.shrew) {
        shrew_excess += row.measured_gain - row.analytic_gain;
        ++shrew_count;
      }
    }
    if (shrew_count > 0) {
      std::printf("# mean shrew-point excess over analysis: %+.3f over %d "
                  "points\n\n",
                  shrew_excess / shrew_count, shrew_count);
    }
  }
  return 0;
}
