// The benchmark's four workloads and the metrics they report. Every
// workload is a closed loop run from one process: each call waits for its
// result before the next is issued. See README.md for why each exists.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of one loop
  bool trace = false;     // false: end-to-end metrics; true: per-layer ones
  std::string workdir;    // scratch directory for stores and span files
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload from an untraced loop.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"points_per_s", "points/s"},
    {"call_p50_s", "s"},        {"sim_s_per_s", "s/s"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics, reported by every workload from a traced loop; a
/// layer that does no work on a workload reports 0 there.
inline constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.pkts", "count"},
    {"net.drops", "count"},
    {"net.red_early_drops", "count"},
    {"net.red_forced_drops", "count"},
    {"net.events_per_pkt", "events/pkt"},
    {"tcp.timeouts", "count"},
    {"tcp.fast_recoveries", "count"},
    {"tcp.retransmits", "count"},
    {"attack.pkts", "count"},
    {"core.run_ms_p50", "ms"},
    {"core.run_ms_p90", "ms"},
    {"core.cold_build_us", "us"},
    {"core.warm_build_us", "us"},
    {"fluid.lane_steps", "count"},
    {"fluid.loss_events", "count"},
    {"fluid.ns_per_lane_step", "ns"},
    {"fluid.driver_ns_per_step", "ns"},
    {"fluid.kernel_ns_per_class_step", "ns"},
    {"fluid.gap", "gain"},
    {"optimizer.packet_runs", "count"},
    {"optimizer.fluid_runs", "count"},
    {"optimizer.packet_ms", "ms"},
    {"optimizer.fluid_ms", "ms"},
    {"optimizer.self_ms", "ms"},
    {"optimizer.top1_hit_ratio", "ratio"},
    {"sweep.tasks", "count"},
    {"sweep.task_ms_p50", "ms"},
    {"sweep.task_ms_p90", "ms"},
    {"sweep.idle_share", "ratio"},
    {"sweep.self_ms", "ms"},
    {"store.open_ms", "ms"},
    {"store.lookup_us_p50", "us"},
    {"store.hit_ratio", "ratio"},
    {"store.bytes", "bytes"},
    {"store.append_us_p50", "us"},
    {"store.claim_us_p50", "us"},
    {"trace.overhead", "ratio"},
};

struct Report {
  std::map<std::string, double> values;  // metric name -> value
  std::vector<std::string> lines;        // human-readable detail
  Checks checks;
};

/// Names of the workloads run_workload accepts.
const std::vector<std::string>& workload_names();

/// Run one workload as `options` say. Throws on a usage error.
Report run_workload(const Options& options);

}  // namespace perfbench
