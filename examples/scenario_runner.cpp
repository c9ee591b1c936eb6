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
//
// Prints baseline and attacked goodput, measured vs predicted degradation,
// queue drop counters and TCP state statistics for a single run (parameter
// campaigns run through tools/pdos_sweep). Numbers are read exactly, as in
// sweep spec files: a malformed value, or a scenario or attack it makes
// invalid, exits 2 with a message naming the problem.
#include <cstdio>
#include <cstring>
#include <string>

#include "pdos/pdos.hpp"

using namespace pdos;

namespace {

const char* value_of(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

double arg_of(int argc, char** argv, const char* flag, double fallback) {
  const char* value = value_of(argc, argv, flag);
  return value != nullptr ? sweep::parse_double(value, flag) : fallback;
}

template <typename Int>
Int integer_arg_of(int argc, char** argv, const char* flag, Int fallback) {
  const char* value = value_of(argc, argv, flag);
  return value != nullptr ? sweep::parse_integer<Int>(value, flag) : fallback;
}

std::string arg_of(int argc, char** argv, const char* flag,
                   const std::string& fallback) {
  const char* value = value_of(argc, argv, flag);
  return value != nullptr ? value : fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Every argument must be a known flag followed by its value (or
/// --no-attack), so a mistyped or retired flag fails instead of being
/// silently ignored.
void check_flags(int argc, char** argv) {
  static constexpr const char* kValued[] = {
      "--flows",  "--bottleneck", "--buffer", "--queue",   "--tcp",
      "--rtomin", "--textent",    "--rattack", "--gamma",  "--kappa",
      "--warmup", "--measure",    "--seed",    "--backend"};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-attack") == 0) continue;
    bool valued = false;
    for (const char* flag : kValued) valued |= std::strcmp(argv[i], flag) == 0;
    PDOS_REQUIRE(valued && i + 1 < argc,
                 std::string("unknown flag or missing value: ") + argv[i]);
    ++i;
  }
}

int run_single(int argc, char** argv) {
  check_flags(argc, argv);
  ScenarioConfig scenario = ScenarioConfig::ns2_dumbbell(
      integer_arg_of<int>(argc, argv, "--flows", 15));
  scenario.bottleneck = mbps(arg_of(argc, argv, "--bottleneck", 15.0));
  scenario.buffer_packets = integer_arg_of<std::uint64_t>(
      argc, argv, "--buffer", scenario.buffer_packets);
  scenario.tcp.rto_min =
      ms(arg_of(argc, argv, "--rtomin", to_ms(scenario.tcp.rto_min)));
  scenario.seed = integer_arg_of<std::uint64_t>(argc, argv, "--seed", 1);

  const std::string queue = arg_of(argc, argv, "--queue", "red");
  PDOS_REQUIRE(queue == "red" || queue == "droptail",
               "unknown --queue '" + queue + "' (want red|droptail)");
  scenario.queue =
      queue == "droptail" ? QueueKind::kDropTail : QueueKind::kRed;
  const std::string tcp = arg_of(argc, argv, "--tcp", "newreno");
  PDOS_REQUIRE(tcp == "tahoe" || tcp == "reno" || tcp == "newreno",
               "unknown --tcp '" + tcp + "' (want tahoe|reno|newreno)");
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

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_single(argc, argv);
  } catch (const ParameterError& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 2;
  }
}
