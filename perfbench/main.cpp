// Benchmark entry point: runs one workload, prints every metric by name
// with its unit and the output-check results, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Without --trace the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exits 1 when a check failed, 2 on a usage or run error.
//
//   pdos_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--workdir DIR]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr, "pdos_perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: pdos_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\nworkloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.workdir = ".bench_build/run";
  bool have_trace = false;
  double seed = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      if (!parse_number(value, seed) || seed < 0 || seed != std::floor(seed)) {
        return usage("--seed needs a non-negative whole number");
      }
    } else if (arg == "--seconds") {
      if (!parse_number(value, opt.seconds) || opt.seconds <= 0.0) {
        return usage("--seconds needs a positive number");
      }
    } else if (arg == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") return usage("--trace needs 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty() || seed < 0 || !have_trace) {
    return usage("--workload, --seed and --trace are required");
  }
  opt.seed = static_cast<std::uint64_t>(seed);

  perfbench::Report report;
  try {
    report = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& line : report.lines) {
    std::printf("# %s\n", line.c_str());
  }
  const perfbench::Checks& checks = report.checks;
  for (const std::string& message : checks.messages()) {
    std::printf("# CHECK FAILED: %s\n", message.c_str());
  }
  std::printf("%-32s %.6g (%zu failed of %zu attempted operations)\n",
              "fail_ratio",
              checks.attempted() > 0
                  ? static_cast<double>(checks.failed()) /
                        static_cast<double>(checks.attempted())
                  : 0.0,
              checks.failed(), checks.attempted());

  std::string json = "{\"correct\": ";
  json += checks.failed() == 0 && checks.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted());
  json += ", \"failed\": " + std::to_string(checks.failed());
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const perfbench::MetricDef& m) {
    double value = report.values.count(m.name) ? report.values.at(m.name) : 0.0;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%-32s %.10g %s\n", m.name, value, m.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, value, m.unit);
    json += buf;
    first = false;
  };
  if (opt.trace) {
    for (const perfbench::MetricDef& m : perfbench::kPerLayer) emit(m);
  } else {
    for (const perfbench::MetricDef& m : perfbench::kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checks.failed() == 0 ? 0 : 1;
}
