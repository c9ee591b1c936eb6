// Generic scenario runner: every knob of the experiment pipeline on the
// command line, for exploring configurations beyond the paper's grid.
//
// Usage:
//   scenario_runner [--flows N] [--bottleneck MBPS] [--buffer PKTS]
//                   [--queue red|droptail] [--tcp tahoe|reno|newreno]
//                   [--rtomin MS] [--textent MS] [--rattack MBPS]
//                   [--gamma G | --no-attack] [--kappa K]
//                   [--warmup S] [--measure S] [--seed N]
//                   [--backend full|fast|fluid]
//   scenario_runner --sweep SPECFILE [--threads N]
//
// The first form prints baseline and attacked goodput, measured vs
// predicted degradation, queue drop counters and TCP state statistics for
// a single run. The second hands a key=value campaign spec (see
// src/sweep/spec.hpp) to the parallel sweep engine and prints its CSV
// table to stdout (or the spec's `csv =` path).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "pdos/pdos.hpp"

using namespace pdos;

namespace {

double arg_of(int argc, char** argv, const char* flag, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

std::string arg_of(int argc, char** argv, const char* flag,
                   const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

namespace {

int run_sweep_mode(const std::string& spec_path, int argc, char** argv) {
  sweep::SpecFile file = sweep::load_spec_file(spec_path);
  const double threads = arg_of(argc, argv, "--threads", 0.0);
  if (threads > 0.0) file.options.threads = static_cast<int>(threads);
  file.options.on_progress = [](const sweep::SweepProgress& progress) {
    std::fprintf(stderr, "\r%zu/%zu done, eta %.1fs  ", progress.done,
                 progress.total, progress.eta_seconds);
    if (progress.done == progress.total) std::fprintf(stderr, "\n");
  };
  const sweep::SweepResult result = sweep::run_sweep(file.spec, file.options);
  std::fprintf(stderr, "sweep: %zu ok, %zu failed on %d threads in %.2fs\n",
               result.completed(), result.failures(), result.threads,
               result.wall_seconds);
  if (file.csv_path.empty()) {
    result.write_csv(std::cout);
  } else {
    std::ofstream out(file.csv_path);
    PDOS_REQUIRE(out.good(), "cannot open output: " + file.csv_path);
    result.write_csv(out);
  }
  if (!file.json_path.empty()) {
    std::ofstream out(file.json_path);
    PDOS_REQUIRE(out.good(), "cannot open output: " + file.json_path);
    result.write_json(out);
  }
  return result.failures() == 0 && !result.cancelled ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string spec_path = arg_of(argc, argv, "--sweep", std::string());
  if (!spec_path.empty()) return run_sweep_mode(spec_path, argc, argv);

  ScenarioConfig scenario = ScenarioConfig::ns2_dumbbell(
      static_cast<int>(arg_of(argc, argv, "--flows", 15)));
  scenario.bottleneck = mbps(arg_of(argc, argv, "--bottleneck", 15.0));
  scenario.buffer_packets = static_cast<std::size_t>(
      arg_of(argc, argv, "--buffer",
             static_cast<double>(scenario.buffer_packets)));
  scenario.tcp.rto_min =
      ms(arg_of(argc, argv, "--rtomin", to_ms(scenario.tcp.rto_min)));
  scenario.seed = static_cast<std::uint64_t>(arg_of(argc, argv, "--seed", 1));

  const std::string queue = arg_of(argc, argv, "--queue", "red");
  scenario.queue =
      queue == "droptail" ? QueueKind::kDropTail : QueueKind::kRed;
  const std::string tcp = arg_of(argc, argv, "--tcp", "newreno");
  scenario.tcp.variant = tcp == "tahoe"  ? TcpVariant::kTahoe
                         : tcp == "reno" ? TcpVariant::kReno
                                         : TcpVariant::kNewReno;
  const std::string backend = arg_of(argc, argv, "--backend", "full");
  const auto parsed_backend = parse_backend(backend);
  if (!parsed_backend) {
    std::fprintf(stderr,
                 "unknown --backend '%s' (want full|fast|fluid)\n",
                 backend.c_str());
    return 2;
  }
  scenario.backend = *parsed_backend;

  RunControl control;
  control.warmup = sec(arg_of(argc, argv, "--warmup", 5.0));
  control.measure = sec(arg_of(argc, argv, "--measure", 20.0));

  std::printf("scenario: %d flows, %.1f Mbps %s bottleneck, B=%zu pkts, "
              "TCP %s, minRTO=%.0fms, seed=%llu, backend=%s\n",
              scenario.num_flows, to_mbps(scenario.bottleneck),
              queue.c_str(), scenario.buffer_packets,
              tcp_variant_name(scenario.tcp.variant),
              to_ms(scenario.tcp.rto_min),
              static_cast<unsigned long long>(scenario.seed),
              backend_name(scenario.backend));

  // One warm workspace for the baseline and the attacked run.
  ScenarioWorkspace ws;
  const BitRate baseline = ws.baseline(scenario, control);
  std::printf("baseline: %.2f Mbps goodput (%.1f%% utilization), jitter "
              "gauge below\n",
              to_mbps(baseline), 100.0 * baseline / scenario.bottleneck);
  if (has_flag(argc, argv, "--no-attack")) return 0;

  AttackPlanRequest request;
  request.victim = scenario.victim_profile();
  request.textent = ms(arg_of(argc, argv, "--textent", 50.0));
  request.rattack = mbps(arg_of(argc, argv, "--rattack", 25.0));
  request.kappa = arg_of(argc, argv, "--kappa", 1.0);
  request.victim_min_rto = scenario.tcp.rto_min;

  const double gamma = arg_of(argc, argv, "--gamma", -1.0);
  const AttackPlan plan = gamma > 0.0
                              ? plan_attack_at_gamma(request, gamma)
                              : plan_attack(request);
  std::printf("\n%s\n\n", plan.summary().c_str());

  const GainMeasurement point =
      ws.gain(scenario, plan.train, request.kappa, control, baseline);
  const RunResult& run = point.run;
  std::printf("under attack: %.2f Mbps goodput\n",
              to_mbps(run.goodput_rate));
  std::printf("degradation Gamma: measured %.3f vs predicted %.3f\n",
              point.degradation, plan.predicted_degradation);
  std::printf("attack gain G:     measured %.3f vs predicted %.3f\n",
              point.gain, plan.predicted_gain);
  std::printf("delivery jitter:   %.1f ms (smoothed)\n",
              to_ms(run.mean_delivery_jitter));
  std::printf("bottleneck drops:  %llu total (%llu tcp, %llu attack; "
              "RED early %llu, forced %llu)\n",
              static_cast<unsigned long long>(run.bottleneck_queue.dropped),
              static_cast<unsigned long long>(
                  run.bottleneck_queue.dropped_tcp),
              static_cast<unsigned long long>(
                  run.bottleneck_queue.dropped_attack),
              static_cast<unsigned long long>(run.red_early_drops),
              static_cast<unsigned long long>(run.red_forced_drops));
  std::printf("TCP state:         %llu timeouts, %llu fast recoveries, "
              "%llu retransmits\n",
              static_cast<unsigned long long>(run.total_timeouts),
              static_cast<unsigned long long>(run.total_fast_recoveries),
              static_cast<unsigned long long>(run.total_retransmits));
  std::printf("simulation:        %llu events, %llu attack packets\n",
              static_cast<unsigned long long>(run.events_executed),
              static_cast<unsigned long long>(run.attack_packets_sent));
  return 0;
}
