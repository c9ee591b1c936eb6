// Ablation: gain-curve robustness to unresponsive cross traffic.
//
// The paper's scenarios carry only bulk TCP. Real bottlenecks also carry
// open-loop traffic that neither backs off under the attack nor
// contributes duplicate ACKs. This bench repeats a Fig. 6-style sweep with
// an exponential ON/OFF source consuming 0 / 10 / 20% of the bottleneck:
// the measured gain curve should keep its unimodal shape and peak
// location, with Γ computed against the correspondingly lower TCP
// baseline.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"

using namespace pdos;

int main(int argc, char** argv) {
  const bench::Mode mode = bench::Mode::from_args(argc, argv);
  std::printf("# Cross-traffic robustness (%s mode): 15 flows, "
              "T_extent=50ms, R_attack=25Mbps, kappa=1\n",
              mode.name());

  for (double fraction : {0.0, 0.1, 0.2}) {
    ScenarioConfig scenario = ScenarioConfig::ns2_dumbbell(15);
    scenario.cross_traffic_rate = fraction * scenario.bottleneck;
    const BitRate baseline = measure_baseline(scenario, mode.control);
    const double cpsi = c_psi(scenario.victim_profile(), ms(50),
                              25.0 / 15.0);
    const auto gammas = gamma_grid(cpsi, mode.gamma_points);
    const auto rows = bench::gain_curve(scenario, ms(50), mbps(25), 1.0,
                                        gammas, mode.control, baseline);
    char label[96];
    std::snprintf(label, sizeof(label),
                  "cross traffic = %.0f%% of bottleneck (TCP baseline "
                  "%.2f Mbps)",
                  100.0 * fraction, to_mbps(baseline));
    bench::print_gain_header(label);
    bench::print_gain_rows(rows);

    // Peak location check: the argmax should stay near gamma*.
    double best_gamma = 0.0;
    double best_gain = -1.0;
    for (const auto& row : rows) {
      if (row.measured_gain > best_gain) {
        best_gain = row.measured_gain;
        best_gamma = row.gamma;
      }
    }
    std::printf("# measured peak at gamma=%.2f (analytic gamma*=%.2f)\n\n",
                best_gamma, std::sqrt(cpsi));
  }
  return 0;
}
