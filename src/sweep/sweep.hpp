// Parallel parameter-sweep engine.
//
// Every figure reproduction is a loop over the paper's grid — R_attack,
// T_extent, flow counts, γ, seeds — and each grid point is an independent
// `Simulator`. `SweepSpec` describes the grid (Cartesian axes or an
// explicit point list), `run_sweep` executes it in one parallel loop
// (sweep/parallel_for.hpp), and `SweepResult` collects per-point Γ/G plus
// run statistics into a stable-ordered CSV table.
//
// Determinism contract: point `i` of the enumeration runs with seed
// `derive_seed(base_seed, replicate)` and writes into slot `i` of the
// result table, so the output is byte-identical regardless of thread
// count or execution order. Baselines are measured once per unique
// (flows, replicate) pair with the same seed as the attack runs they
// normalize; `make_tasks` decides both lists, for every caller.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/units.hpp"

namespace pdos::sweep {

class PointStore;  // sweep/point_cache.hpp

/// Which paper scenario family the sweep instantiates.
enum class ScenarioKind { kNs2Dumbbell, kTestbed };

const char* scenario_kind_name(ScenarioKind kind);

/// One grid point: the attack/scenario parameters a single simulation
/// runs with. `replicate` selects the seed stream.
struct PointSpec {
  int flows = 15;
  Time textent = ms(50);
  BitRate rattack = mbps(25);
  double gamma = 0.5;
  double kappa = 1.0;
  int replicate = 0;
};

struct SweepSpec {
  ScenarioKind scenario = ScenarioKind::kNs2Dumbbell;
  QueueKind queue = QueueKind::kRed;
  /// Simulation tier every point (and baseline) runs on; spec files select
  /// it with `backend = full|fast|fluid`. Cache keys include it, so
  /// switching tiers never replays another tier's points.
  Backend backend = Backend::kFull;

  // Cartesian axes (ignored when `explicit_points` is non-empty).
  std::vector<int> flow_counts = {15};
  std::vector<Time> textents = {ms(50)};
  std::vector<BitRate> rattacks = {mbps(25)};
  /// Explicit γ values. Empty means "auto": an evenly spaced grid of
  /// `gamma_points` values on (max(0.1, C_Ψ + 0.02), 0.95), per
  /// (flows, textent, rattack) combination — the grid Figs. 6-9 sweep.
  std::vector<double> gammas;
  int gamma_points = 7;

  double kappa = 1.0;
  int replicates = 1;
  std::uint64_t base_seed = 1;
  RunControl control;

  /// When non-empty, run exactly these points instead of the grid.
  std::vector<PointSpec> explicit_points;

  /// The scenario config a point runs with (attack parameters excluded).
  ScenarioConfig make_scenario(const PointSpec& point) const;

  /// Expand to the ordered point list. Stable: same spec, same list.
  /// Infeasible γ (outside (0,1) or above C_attack) are skipped, matching
  /// the figure harnesses.
  std::vector<PointSpec> enumerate() const;

  void validate() const;
};

/// Seed for replicate `i`: a SplitMix64 mix of the campaign base seed, so
/// replicate streams are independent and thread-count invariant.
std::uint64_t replicate_seed(std::uint64_t base_seed, int replicate);

enum class PointStatus { kOk, kFailed, kSkipped };

/// The outputs of one completed point: every row field a run produces, and
/// everything a result store (sweep/point_cache.hpp) keeps of a row.
struct CachedPoint {
  // Analytic predictions (Eq. 12/13) and the C_Ψ of the pulse shape.
  double c_psi = 0.0;
  double analytic_degradation = 0.0;
  double analytic_gain = 0.0;
  bool shrew = false;  // plan period collides with a shrew harmonic

  // Measured quantities.
  double baseline_goodput = 0.0;  // bps, no-attack run with the same seed
  double goodput = 0.0;           // bps under attack
  double measured_degradation = 0.0;  // Γ
  double measured_gain = 0.0;         // G
  double utilization = 0.0;
  double fairness = 0.0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t attack_packets = 0;
  std::uint64_t events = 0;
};

/// One row of the result table: a point, its seed and status, and its
/// outputs. A store hit is one assignment to the CachedPoint part.
struct PointResult : CachedPoint {
  std::size_t index = 0;  // position in SweepSpec::enumerate()
  PointSpec point;
  std::uint64_t seed = 0;
  PointStatus status = PointStatus::kSkipped;
  std::string error;  // set when status == kFailed
};

/// A spec's work, as `make_tasks` decides it: its rows and the no-attack
/// baselines that normalize them. run_sweep runs exactly these tasks, and
/// campaigns count and key them from the same list.
struct SweepTasks {
  /// SweepSpec::enumerate() order, each row's index, point and seed set.
  std::vector<PointResult> rows;
  /// One per distinct (flows, replicate) pair, in order of first
  /// appearance: the first row with that pair, whose point and seed the
  /// baseline runs with.
  std::vector<std::size_t> baselines;
  /// Per row: the position of its baseline in `baselines`.
  std::vector<std::size_t> baseline_of;

  /// Baselines plus rows: a run_sweep call's progress total.
  std::size_t size() const { return baselines.size() + rows.size(); }
};

/// Enumerate `spec` into its tasks (validating it first).
SweepTasks make_tasks(const SweepSpec& spec);

struct SweepResult {
  std::vector<PointResult> points;  // enumeration order, always full-size
  int threads = 1;
  double wall_seconds = 0.0;
  bool cancelled = false;
  /// Tasks (baselines + points) answered from the store instead of
  /// simulation. 0 without a store.
  std::size_t cache_hits = 0;
  /// Tasks this process simulated itself (as opposed to cache hits and
  /// failures). Campaign workers sum this across processes to verify the
  /// claim protocol deduplicated the grid: a cold K-worker campaign should
  /// sum to ~the unique task count, not K× it.
  std::size_t simulated = 0;

  std::size_t failures() const;
  std::size_t completed() const;

  /// Stable machine-readable table (RFC 4180 via io/csv). Byte-identical
  /// across thread counts for the same spec.
  void write_csv(std::ostream& out) const;
};

/// Replicate statistics for one grid point: mean, sample stddev, and 95%
/// normal CI half-width of the measured gain (and degradation) across the
/// point's kOk replicate rows. What figure scripts used to post-process by
/// hand; emitted by `pdos_sweep --aggregate`.
struct AggregateRow {
  PointSpec point;             // axes of the group; replicate field unused
  std::size_t replicates = 0;  // kOk rows aggregated (0 = all failed)
  double mean_gain = 0.0;
  double stddev_gain = 0.0;
  double ci95_gain = 0.0;
  double mean_degradation = 0.0;
  double stddev_degradation = 0.0;
  double ci95_degradation = 0.0;
  double mean_goodput = 0.0;  // bps
};

/// Collapse a result table to one row per (flows, textent, rattack, gamma,
/// kappa) point, aggregating over its replicates in enumeration order.
/// Failed/skipped replicates are excluded from the statistics (and counted
/// out of `replicates`).
std::vector<AggregateRow> aggregate_replicates(const SweepResult& result);

void write_aggregate_csv(const std::vector<AggregateRow>& rows,
                         std::ostream& out);

/// Progress snapshot handed to the callback after every finished task.
struct SweepProgress {
  std::size_t done = 0;    // finished tasks (baselines + points)
  std::size_t total = 0;   // total tasks
  std::size_t cached = 0;  // of `done`, answered from the point cache
  double elapsed_seconds = 0.0;
  /// Wall-cost extrapolation of the remaining tasks. Cache hits replay in
  /// microseconds, so they are weighted as zero-cost: the per-task average
  /// comes from the simulated tasks only, and the remaining mix is
  /// predicted at the hit rate observed so far — an all-hit --resume
  /// reports eta 0 instead of extrapolating simulation cost onto replays.
  /// 0 until done > 0.
  double eta_seconds = 0.0;
};

struct SweepOptions {
  /// Worker threads, the caller included: <= 0 means default_threads(),
  /// and more than kMaxWorkers is a ParameterError (sweep/parallel_for.hpp).
  int threads = 0;
  /// Stop dispatching new points after the first failure; undispatched
  /// points are reported as kSkipped and the result as cancelled. On the
  /// fluid tier the other points of an in-flight flows group still finish.
  bool cancel_on_failure = true;
  /// Called with the sweep's progress after each task; invocations are
  /// serialized, but may come from any worker thread.
  std::function<void(const SweepProgress&)> on_progress;
  /// Result store (sweep/point_cache.hpp; not owned, must outlive the call;
  /// null runs without one). Every task is looked up before dispatch and
  /// stored after simulation, so re-running a campaign resumes instead of
  /// recomputing. With a claiming store (CampaignStore), every cold task is
  /// claimed before simulation: tasks another process holds a live lease on
  /// are deferred and drained after the main pass — resolved from the store
  /// when the other worker's result lands, or simulated locally once its
  /// lease expires. This is what lets K cooperating processes partition one
  /// grid with near-zero duplicated work.
  PointStore* store = nullptr;
  /// Poll interval (seconds) while draining tasks leased to other workers.
  double claim_poll_seconds = 0.05;
};

/// Execute make_tasks(spec): baselines first, then every row, each phase one
/// parallel loop over its tasks.
SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options = {});

}  // namespace pdos::sweep
