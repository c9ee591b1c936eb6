// Shared driver for Figs. 6-9: attack gain vs gamma on the ns-2 dumbbell,
// one figure per R_attack, four subplots (15/25/35/45 flows), three curves
// per subplot (T_extent = 50/75/100 ms).
//
// The grid runs on the sweep engine (src/sweep): every (flows, T_extent,
// gamma) point is an independent simulation executed in the sweep's
// parallel loop, then printed in the figure's order from the stable result
// table. Thread count comes from PDOS_SWEEP_THREADS (0 or unset = all
// hardware threads); output is byte-identical regardless.
#pragma once

#include "common.hpp"
#include "sweep/sweep.hpp"

namespace pdos::bench {

inline int sweep_threads_from_env() {
  const char* env = std::getenv("PDOS_SWEEP_THREADS");
  return env != nullptr ? std::atoi(env) : 0;
}

inline int run_gain_figure(const char* figure, BitRate rattack, int argc,
                           char** argv) {
  const Mode mode = Mode::from_args(argc, argv);
  std::printf("# %s: attack gain vs gamma, R_attack = %.0f Mbps (%s mode)\n",
              figure, to_mbps(rattack), mode.name());
  std::printf("# lines: analytical Eq. (12); symbols: simulation; kappa=1\n");

  sweep::SweepSpec spec;
  spec.flow_counts = {15, 25, 35, 45};
  spec.textents = {ms(50), ms(75), ms(100)};
  spec.rattacks = {rattack};
  spec.gamma_points = mode.gamma_points;
  spec.control = mode.control;

  sweep::SweepOptions options;
  options.threads = sweep_threads_from_env();
  const sweep::SweepResult result = sweep::run_sweep(spec, options);
  std::printf("# sweep: %zu points on %d threads in %.2f s\n",
              result.points.size(), result.threads, result.wall_seconds);
  if (result.failures() > 0 || result.cancelled) {
    for (const auto& point : result.points) {
      if (point.status == sweep::PointStatus::kFailed) {
        std::fprintf(stderr, "point %zu failed: %s\n", point.index,
                     point.error.c_str());
      }
    }
    return 1;
  }

  for (int flows : spec.flow_counts) {
    const ScenarioConfig scenario = ScenarioConfig::ns2_dumbbell(flows);
    double baseline = 0.0;
    for (const auto& point : result.points) {
      if (point.point.flows == flows) {
        baseline = point.baseline_goodput;
        break;
      }
    }
    std::printf("\n## %d TCP flows (baseline goodput %.2f Mbps, "
                "utilization %.2f)\n",
                flows, to_mbps(baseline), baseline / scenario.bottleneck);
    std::vector<GainCurveData> curves;
    for (Time textent : spec.textents) {
      std::vector<GainRow> rows;
      double cpsi = 0.0;
      for (const auto& point : result.points) {
        if (point.point.flows != flows || point.point.textent != textent) {
          continue;
        }
        cpsi = point.c_psi;
        GainRow row;
        row.gamma = point.point.gamma;
        row.analytic_gain = point.analytic_gain;
        row.measured_gain = point.measured_gain;
        row.analytic_degradation = point.analytic_degradation;
        row.measured_degradation = point.measured_degradation;
        row.timeouts = point.timeouts;
        row.shrew = point.shrew;
        rows.push_back(row);
      }
      char label[128];
      std::snprintf(label, sizeof(label),
                    "T_extent = %.0f ms  (C_psi = %.3f)", to_ms(textent),
                    cpsi);
      print_gain_header(label);
      print_gain_rows(rows);
      std::printf("# regime: %s\n", classify_regime(rows));
      char short_label[64];
      std::snprintf(short_label, sizeof(short_label), "T_extent = %.0f ms",
                    to_ms(textent));
      curves.push_back(to_curve(short_label, rows));
    }
    if (!mode.out_dir.empty()) {
      char stem[64];
      std::snprintf(stem, sizeof(stem), "%s_%dflows", figure, flows);
      for (char& c : stem) {
        if (c == ' ' || c == '.') c = '_';
      }
      const std::string gp = write_gain_figure(
          mode.out_dir, stem, std::string(figure) + ", " +
                                  std::to_string(flows) + " flows",
          curves);
      std::printf("# plot artifacts: %s\n", gp.c_str());
    }
  }
  return 0;
}

}  // namespace pdos::bench
