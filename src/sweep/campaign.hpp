// Multi-process campaign orchestration.
//
// A campaign is one or more submitted sweep specs executed by K cooperating
// worker processes over one shared CampaignStore. `run_campaign` forks the
// workers (each runs every spec through the ordinary `run_sweep` engine,
// coordinating point-by-point via the store's claim protocol), streams
// merged progress from their report pipes, and — after the workers join —
// replays each spec from the store in-process to produce the final merged
// tables. The replay is byte-identical to a single-process run of the same
// spec: the result table is keyed by enumeration order and cached doubles
// round-trip bit-exactly, so CSV bytes cannot depend on which worker
// simulated which point.
//
// Cross-spec dedup costs nothing: keys are content hashes, so two specs
// that share a sub-grid (or a spec resubmitted by another user) share the
// store records, and only the first campaign simulates them.
//
// Worker processes are forked before any thread is created in the child
// (each child starts its own sweep threads afterwards), communicate over a
// pipe with one short text line per event, and `_exit` without running
// parent atexit handlers. A worker that crashes mid-task simply leaves a
// lease to expire: the surviving workers (or the parent's final replay
// pass) re-claim and finish its points.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sweep/sweep.hpp"

namespace pdos::sweep {

/// One submitted spec plus where its merged outputs go.
struct CampaignSpec {
  SweepSpec spec;
  std::string csv_path;  // empty: suppress the CSV file
  std::string name;      // label for progress lines (e.g. file basename)
};

/// Merged progress across all workers and specs. Every worker walks every
/// task of every spec (simulating the ones it claims, replaying the rest),
/// so a spec's campaign-wide progress is the furthest worker's progress,
/// summed over specs.
struct CampaignProgress {
  std::size_t done = 0;
  std::size_t total = 0;
  std::size_t cached = 0;  // of `done`, answered from the store
  double elapsed_seconds = 0.0;
  int workers_alive = 0;
};

struct CampaignOptions {
  /// CampaignStore directory shared by all workers (created if missing).
  std::string store_dir = ".pdos-cache/campaign";
  /// Worker processes; like `threads`, more than kMaxWorkers
  /// (sweep/parallel_for.hpp) is a ParameterError, raised before any fork.
  int workers = 2;
  /// Threads per worker (<= 0: default_threads() in each).
  int threads = 0;
  bool keep_going = false;  // workers keep dispatching after a failure
  double lease_ttl_seconds = 120.0;  // finite and > 0
  double claim_poll_seconds = 0.05;
  /// Serialized in the parent; called on every worker report line.
  std::function<void(const CampaignProgress&)> on_progress;
};

struct CampaignSpecResult {
  /// The parent's post-join replay of the spec (the merged table). All-hit
  /// when the workers completed the grid; any straggler a crashed worker
  /// left behind is simulated here.
  SweepResult result;
  std::size_t unique_tasks = 0;  // baselines + points, deduped within spec
};

struct CampaignResult {
  std::vector<CampaignSpecResult> specs;  // one per submitted spec
  /// Unique task keys across ALL specs — the floor of simulations a cold
  /// campaign must run, and (claim protocol working) also the ceiling.
  std::size_t unique_tasks = 0;
  /// Sum of the workers' SweepResult::simulated counters. On a cold store,
  /// worker_simulated + final_simulated > unique_tasks means duplicated
  /// work; <= holds whenever claiming dedups correctly (CI asserts it).
  std::size_t worker_simulated = 0;
  std::size_t final_simulated = 0;  // stragglers simulated by the parent
  int worker_failures = 0;  // workers that exited nonzero or crashed
  double wall_seconds = 0.0;

  bool ok() const;
};

/// Fork `options.workers` processes over `specs`, join them, and replay the
/// merged results. Must be called from a process that can fork safely
/// (i.e. before the caller spawns its own threads). Every CSV output is
/// opened before the first fork: one that cannot be opened, or a path named
/// twice, is a ParameterError and nothing runs.
CampaignResult run_campaign(const std::vector<CampaignSpec>& specs,
                            const CampaignOptions& options);

/// Unique task count (baselines + points) of one spec: the distinct store
/// keys of make_tasks(spec).
std::size_t count_unique_tasks(const SweepSpec& spec);

}  // namespace pdos::sweep
