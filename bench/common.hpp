// Shared plumbing for the figure-reproduction harnesses.
//
// Every bench binary prints, to stdout, the same series the corresponding
// paper figure plots: analytical curves computed from the model in
// src/core plus simulated points from packet-level runs. Two fidelity
// modes:
//   quick (default) — coarser gamma grids and shorter measurement windows;
//     finishes in seconds and preserves every qualitative conclusion.
//   full (--full flag or PDOS_BENCH_FULL=1) — the paper-sized grid.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/planner.hpp"
#include "io/gnuplot.hpp"

namespace pdos::bench {

struct Mode {
  bool full = false;
  RunControl control;
  int gamma_points = 7;
  std::string out_dir;  // when set, also write .dat/.gp plot artifacts

  static Mode from_args(int argc, char** argv) {
    Mode mode;
    const char* env = std::getenv("PDOS_BENCH_FULL");
    mode.full = (env != nullptr && std::strcmp(env, "0") != 0);
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) mode.full = true;
      if (std::strcmp(argv[i], "--quick") == 0) mode.full = false;
      if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        mode.out_dir = argv[i + 1];
      }
    }
    if (mode.full) {
      mode.control.warmup = sec(8);
      mode.control.measure = sec(40);
      mode.gamma_points = 15;
    } else {
      mode.control.warmup = sec(5);
      mode.control.measure = sec(15);
      mode.gamma_points = 7;
    }
    return mode;
  }

  const char* name() const { return full ? "full" : "quick"; }
};

struct GainRow {
  double gamma = 0.0;
  double analytic_gain = 0.0;
  double measured_gain = 0.0;
  double analytic_degradation = 0.0;
  double measured_degradation = 0.0;
  std::uint64_t timeouts = 0;
  bool shrew = false;
};

/// One curve of Figs. 6-10/12: sweep gamma for a fixed pulse shape.
inline std::vector<GainRow> gain_curve(const ScenarioConfig& scenario,
                                       Time textent, BitRate rattack,
                                       double kappa,
                                       const std::vector<double>& gammas,
                                       const RunControl& control,
                                       BitRate baseline) {
  AttackPlanRequest request;
  request.victim = scenario.victim_profile();
  request.textent = textent;
  request.rattack = rattack;
  request.kappa = kappa;
  request.victim_min_rto = scenario.tcp.rto_min;

  std::vector<GainRow> rows;
  for (double gamma : gammas) {
    if (gamma <= 0.0 || gamma >= 1.0) continue;
    if (gamma > rattack / scenario.bottleneck) continue;  // needs tspace >= 0
    const AttackPlan plan = plan_attack_at_gamma(request, gamma);
    const GainMeasurement point =
        measure_gain(scenario, plan.train, kappa, control, baseline);
    GainRow row;
    row.gamma = gamma;
    row.analytic_gain = plan.predicted_gain;
    row.measured_gain = point.gain;
    row.analytic_degradation = plan.predicted_degradation;
    row.measured_degradation = point.degradation;
    row.timeouts = point.run.total_timeouts;
    row.shrew = plan.shrew_harmonic.has_value();
    rows.push_back(row);
  }
  return rows;
}

inline void print_gain_header(const char* label) {
  std::printf("# %s\n", label);
  std::printf("%8s %12s %12s %12s %12s %9s %6s\n", "gamma", "G_analytic",
              "G_sim", "Gam_analytic", "Gam_sim", "timeouts", "shrew");
}

inline void print_gain_rows(const std::vector<GainRow>& rows) {
  for (const auto& row : rows) {
    std::printf("%8.3f %12.4f %12.4f %12.4f %12.4f %9llu %6s\n", row.gamma,
                row.analytic_gain, row.measured_gain,
                row.analytic_degradation, row.measured_degradation,
                static_cast<unsigned long long>(row.timeouts),
                row.shrew ? "*" : "");
  }
}

/// Convert gain rows into a plot-ready curve.
inline GainCurveData to_curve(const std::string& label,
                              const std::vector<GainRow>& rows) {
  GainCurveData curve;
  curve.label = label;
  for (const auto& row : rows) {
    curve.gamma.push_back(row.gamma);
    curve.analytic.push_back(row.analytic_gain);
    curve.simulated.push_back(row.measured_gain);
  }
  return curve;
}

/// Classify a curve the way §4.1.1 does, from the mean signed error around
/// the analytic maximum.
inline const char* classify_regime(const std::vector<GainRow>& rows) {
  double err = 0.0;
  int n = 0;
  for (const auto& row : rows) {
    if (row.shrew) continue;  // the paper excludes shrew points
    err += row.measured_gain - row.analytic_gain;
    ++n;
  }
  if (n == 0) return "n/a";
  err /= n;
  if (err > 0.07) return "over-gain";
  if (err < -0.07) return "under-gain";
  return "normal-gain";
}

}  // namespace pdos::bench
