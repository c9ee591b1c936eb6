#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/model.hpp"
#include "core/planner.hpp"
#include "io/csv.hpp"
#include "sweep/parallel_for.hpp"
#include "sweep/point_cache.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pdos::sweep {

const char* scenario_kind_name(ScenarioKind kind) {
  return kind == ScenarioKind::kNs2Dumbbell ? "ns2" : "testbed";
}

std::uint64_t replicate_seed(std::uint64_t base_seed, int replicate) {
  // Stream tag keeps sweep seeds disjoint from the in-run component
  // streams derived from the same base (see experiment.cpp).
  constexpr std::uint64_t kReplicateStream = 0x73776565'70000000ULL;  // "sweep"
  return derive_seed(base_seed,
                     kReplicateStream + static_cast<std::uint64_t>(replicate));
}

ScenarioConfig SweepSpec::make_scenario(const PointSpec& point) const {
  ScenarioConfig config = scenario == ScenarioKind::kNs2Dumbbell
                              ? ScenarioConfig::ns2_dumbbell(point.flows)
                              : ScenarioConfig::testbed(point.flows);
  config.queue = queue;
  config.backend = backend;
  config.seed = replicate_seed(base_seed, point.replicate);
  return config;
}

void SweepSpec::validate() const {
  PDOS_REQUIRE(replicates >= 1, "SweepSpec: need at least one replicate");
  PDOS_REQUIRE(gamma_points >= 2, "SweepSpec: need gamma_points >= 2");
  if (explicit_points.empty()) {
    PDOS_REQUIRE(!flow_counts.empty(), "SweepSpec: flow_counts is empty");
    PDOS_REQUIRE(!textents.empty(), "SweepSpec: textents is empty");
    PDOS_REQUIRE(!rattacks.empty(), "SweepSpec: rattacks is empty");
    for (int flows : flow_counts) {
      PDOS_REQUIRE(flows >= 1, "SweepSpec: flow counts must be >= 1");
    }
    // Every point of an axis entry <= 0 would fail; explicit points (which
    // tests use to inject an infeasible one) still fail at run time.
    for (Time textent : textents) {
      PDOS_REQUIRE(textent > 0.0, "SweepSpec: textent must be > 0");
    }
    for (BitRate rattack : rattacks) {
      PDOS_REQUIRE(rattack > 0.0, "SweepSpec: rattack must be > 0");
    }
  }
  PDOS_REQUIRE(kappa >= 0.0, "SweepSpec: kappa must be >= 0");
  PDOS_REQUIRE(control.warmup >= 0.0, "SweepSpec: warmup must be >= 0");
  PDOS_REQUIRE(control.measure > 0.0, "SweepSpec: measure window must be > 0");
}

std::vector<PointSpec> SweepSpec::enumerate() const {
  validate();
  std::vector<PointSpec> points;
  if (!explicit_points.empty()) {
    for (const PointSpec& point : explicit_points) {
      for (int rep = 0; rep < replicates; ++rep) {
        PointSpec copy = point;
        copy.replicate = rep;
        points.push_back(copy);
      }
    }
    return points;
  }
  for (int flows : flow_counts) {
    // C_Ψ depends only on the victim profile and pulse shape; reuse the
    // scenario across the inner axes.
    PointSpec probe;
    probe.flows = flows;
    const ScenarioConfig scenario_config = make_scenario(probe);
    const VictimProfile victim = scenario_config.victim_profile();
    for (Time textent : textents) {
      for (BitRate rattack : rattacks) {
        const double c_attack = rattack / scenario_config.bottleneck;
        const std::vector<double> grid =
            gammas.empty()
                ? gamma_grid(c_psi(victim, textent, c_attack), gamma_points)
                : gammas;
        for (double gamma : grid) {
          if (gamma <= 0.0 || gamma >= 1.0) continue;
          if (gamma > c_attack) continue;  // needs T_space >= 0
          for (int rep = 0; rep < replicates; ++rep) {
            PointSpec point;
            point.flows = flows;
            point.textent = textent;
            point.rattack = rattack;
            point.gamma = gamma;
            point.kappa = kappa;
            point.replicate = rep;
            points.push_back(point);
          }
        }
      }
    }
  }
  return points;
}

SweepTasks make_tasks(const SweepSpec& spec) {
  SweepTasks tasks;
  const std::vector<PointSpec> points = spec.enumerate();
  tasks.rows.resize(points.size());
  tasks.baseline_of.resize(points.size());
  std::map<std::pair<int, int>, std::size_t> slot_of;  // (flows, replicate)
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult& row = tasks.rows[i];
    row.index = i;
    row.point = points[i];
    row.seed = replicate_seed(spec.base_seed, row.point.replicate);
    const auto [it, added] = slot_of.try_emplace(
        {row.point.flows, row.point.replicate}, tasks.baselines.size());
    if (added) tasks.baselines.push_back(i);
    tasks.baseline_of[i] = it->second;
  }
  return tasks;
}

std::size_t SweepResult::failures() const {
  std::size_t n = 0;
  for (const auto& point : points) {
    if (point.status == PointStatus::kFailed) ++n;
  }
  return n;
}

std::size_t SweepResult::completed() const {
  std::size_t n = 0;
  for (const auto& point : points) {
    if (point.status == PointStatus::kOk) ++n;
  }
  return n;
}

namespace {

std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string fmt(std::uint64_t value) {
  return std::to_string(value);
}

const char* status_name(PointStatus status) {
  switch (status) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kFailed: return "failed";
    case PointStatus::kSkipped: return "skipped";
  }
  return "?";
}

}  // namespace

void SweepResult::write_csv(std::ostream& out) const {
  CsvWriter csv(out, {"index", "scenario_flows", "textent_ms", "rattack_mbps",
                      "gamma", "kappa", "replicate", "seed", "status",
                      "c_psi", "analytic_degradation", "analytic_gain",
                      "shrew", "baseline_mbps", "goodput_mbps",
                      "measured_degradation", "measured_gain", "utilization",
                      "fairness", "timeouts", "fast_recoveries",
                      "attack_packets", "events", "error"});
  for (const auto& r : points) {
    csv.row({fmt(static_cast<std::uint64_t>(r.index)),
             std::to_string(r.point.flows), fmt(to_ms(r.point.textent)),
             fmt(to_mbps(r.point.rattack)), fmt(r.point.gamma),
             fmt(r.point.kappa), std::to_string(r.point.replicate),
             fmt(r.seed), status_name(r.status), fmt(r.c_psi),
             fmt(r.analytic_degradation), fmt(r.analytic_gain),
             r.shrew ? "1" : "0", fmt(to_mbps(r.baseline_goodput)),
             fmt(to_mbps(r.goodput)), fmt(r.measured_degradation),
             fmt(r.measured_gain), fmt(r.utilization), fmt(r.fairness),
             fmt(r.timeouts), fmt(r.fast_recoveries), fmt(r.attack_packets),
             fmt(r.events), r.error});
  }
}

namespace {

/// Baseline goodput for one (flows, replicate) pair.
struct BaselineSlot {
  BitRate goodput = 0.0;
  PointStatus status = PointStatus::kSkipped;
  std::string error;  // set when status == kFailed
};

/// Serialized progress bookkeeping shared by all workers.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total,
                const std::function<void(const SweepProgress&)>& callback)
      : total_(total),
        callback_(callback),
        start_(std::chrono::steady_clock::now()) {}

  void tick(bool cached) {
    if (!callback_) {
      done_.fetch_add(1, std::memory_order_relaxed);
      if (cached) cached_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    SweepProgress progress;
    progress.done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    progress.cached = cached_.fetch_add(cached ? 1 : 0,
                                        std::memory_order_relaxed) +
                      (cached ? 1 : 0);
    progress.total = total_;
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    // Cache hits replay in microseconds — weighting them at full cost made
    // --resume ETAs absurd (an all-hit replay predicted hours). Average the
    // elapsed wall time over the SIMULATED tasks only and predict the
    // remaining mix at the hit rate observed so far; with no simulated task
    // yet (pure replay) the remaining work rounds to zero.
    const std::size_t simulated = progress.done - progress.cached;
    if (simulated > 0) {
      const double per_task =
          progress.elapsed_seconds / static_cast<double>(simulated);
      const double simulated_share = static_cast<double>(simulated) /
                                     static_cast<double>(progress.done);
      progress.eta_seconds = per_task *
                             static_cast<double>(total_ - progress.done) *
                             simulated_share;
    }
    callback_(progress);
  }

 private:
  std::size_t total_;
  const std::function<void(const SweepProgress&)>& callback_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> cached_{0};
  std::mutex mutex_;
};

/// A contiguous run of entries that share some axes.
struct TaskGroup {
  std::size_t first = 0;
  std::size_t count = 0;
};

bool same_point_axes(const PointSpec& a, const PointSpec& b) {
  return a.flows == b.flows && a.textent == b.textent &&
         a.rattack == b.rattack && a.gamma == b.gamma && a.kappa == b.kappa;
}

/// Group consecutive entries for which `same(previous group's first, next)`
/// holds.
template <typename GetSpec, typename Same>
std::vector<TaskGroup> group_consecutive(std::size_t n, GetSpec&& spec_of,
                                         Same&& same) {
  std::vector<TaskGroup> groups;
  for (std::size_t i = 0; i < n; ++i) {
    if (!groups.empty() && same(spec_of(groups.back().first), spec_of(i))) {
      ++groups.back().count;
      continue;
    }
    groups.push_back(TaskGroup{i, 1});
  }
  return groups;
}

/// Lanes per fluid solve_batch call in the fluid-tier point path: one
/// 8-lane AVX-512 vector or two 4-lane ones — wide enough to amortize the
/// per-step driver, small enough that a ragged tail wastes little work.
/// 16 was no faster on a 4-vCPU AVX-512 Xeon (fluid_campaign, 4 interleaved
/// pairs: 5,002 against 5,001 points/s). Not a result knob: batched lanes
/// are bit-identical to single-point solves at any width.
constexpr std::size_t kFluidBatchWidth = 8;

/// The analytic plan for a point. Depends on the scenario and the attack
/// axes only — never on the seed — so a replicate group shares one plan.
AttackPlan plan_point_attack(const ScenarioConfig& scenario,
                             const PointSpec& point) {
  AttackPlanRequest request;
  request.victim = scenario.victim_profile();
  request.textent = point.textent;
  request.rattack = point.rattack;
  request.kappa = point.kappa;
  request.attack_packet_bytes = scenario.attack_packet_bytes;
  request.victim_min_rto = scenario.tcp.rto_min;
  return plan_attack_at_gamma(request, point.gamma);
}

void fill_plan(PointResult& slot, const AttackPlan& plan) {
  slot.c_psi = plan.c_psi;
  slot.analytic_degradation = plan.predicted_degradation;
  slot.analytic_gain = plan.predicted_gain;
  slot.shrew = plan.shrew_harmonic.has_value();
}

void fill_measured(PointResult& slot, const GainMeasurement& measured,
                   BitRate baseline_goodput) {
  slot.baseline_goodput = baseline_goodput;
  slot.goodput = measured.run.goodput_rate;
  slot.measured_degradation = measured.degradation;
  slot.measured_gain = measured.gain;
  slot.utilization = measured.run.utilization;
  slot.fairness = measured.run.fairness_index;
  slot.timeouts = measured.run.total_timeouts;
  slot.fast_recoveries = measured.run.total_fast_recoveries;
  slot.attack_packets = measured.run.attack_packets_sent;
  slot.events = measured.run.events_executed;
}

/// One unit of sweep work: a baseline slot or a result row.
struct Task {
  bool baseline = false;
  std::size_t slot = 0;
  std::uint64_t key = 0;  // store key; set by resolve when there is a store
  bool claimed = false;   // this process holds the store's lease on it
};

/// How a task ends. Every task reaches `SweepRun::record` exactly once.
enum class Outcome { kHit, kResult, kFailed, kSkipped };

/// One `run_sweep` call. Every task goes resolve → run → record: resolve
/// answers it from the store, defers it to a peer process, or hands it to
/// one of two executors — the packet executor runs it alone on its
/// worker's warm workspace, the fluid executor batches a flows group's
/// misses — and the executor records what became of it.
class SweepRun {
 public:
  SweepRun(const SweepSpec& spec, const SweepOptions& options)
      : spec_(spec),
        options_(options),
        threads_(options.threads > 0 ? options.threads : default_threads()),
        tasks_(make_tasks(spec)),
        baselines_(tasks_.baselines.size()),
        meter_(tasks_.size(), options.on_progress),
        store_(options.store) {
    // Before a workspace slot is made or a thread started.
    check_worker_count(options.threads, "run_sweep: threads");
    workspaces_.resize(static_cast<std::size_t>(threads_));
    // Keys are hashed only when there is a store to address.
    if (store_ != nullptr) keys_ = sweep_keys(spec, tasks_);
  }

  SweepResult run() {
    const auto start = std::chrono::steady_clock::now();
    // Baselines first: each runs the no-attack scenario with the same seed
    // as the attack points it normalizes.
    for (const bool baseline : {true, false}) {
      std::vector<Task> tasks(baseline ? baselines_.size()
                                       : tasks_.rows.size());
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        tasks[i].baseline = baseline;
        tasks[i].slot = i;
      }
      drain(pass(tasks));
    }
    SweepResult result;
    result.points = std::move(tasks_.rows);
    result.threads = threads_;
    result.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    result.simulated = simulated_.load(std::memory_order_relaxed);
    result.cancelled = cancel_.load(std::memory_order_relaxed);
    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return result;
  }

 private:
  /// One parallel pass over `tasks`. Returns the tasks a peer process holds
  /// a live lease on.
  std::vector<Task> pass(const std::vector<Task>& tasks) {
    if (tasks.empty()) return {};
    if (spec_.backend == Backend::kFluid && !tasks.front().baseline) {
      // Fluid tier (DESIGN.md §16): all points with one flows value share
      // one topology (make_scenario varies only in the seed, which the
      // fluid solver never reads), so a flows group's misses are one
      // lane-batched workload. `enumerate()` emits flows outermost.
      const std::vector<TaskGroup> groups = group_consecutive(
          tasks.size(),
          [&](std::size_t i) -> const PointSpec& {
            return tasks_.rows[tasks[i].slot].point;
          },
          [](const PointSpec& a, const PointSpec& b) {
            return a.flows == b.flows;
          });
      parallel_for(threads_, groups.size(), [&](std::size_t g, std::size_t) {
        std::vector<Task> misses;
        for (std::size_t i = 0; i < groups[g].count; ++i) {
          Task task = tasks[groups[g].first + i];
          if (resolve(task)) misses.push_back(task);
        }
        if (!misses.empty()) run_fluid(misses);
      });
    } else {
      parallel_for(threads_, tasks.size(),
                   [&](std::size_t i, std::size_t worker) {
                     Task task = tasks[i];
                     if (resolve(task)) run_packet(task, worker);
                   });
    }
    std::vector<Task> deferred;
    deferred.swap(deferred_);  // the pass has joined: no lock needed
    return deferred;
  }

  /// Tasks a peer holds a live lease on go through the same pass again,
  /// back in slot order, after a poll interval and a refresh of the store:
  /// each resolves to a hit once the peer's result lands, or runs here once
  /// its lease expires. Every wait is bounded by the lease TTL. A refresh
  /// that throws fails the tasks waiting on it.
  void drain(std::vector<Task> deferred) {
    const auto poll = std::chrono::duration<double>(
        std::max(1e-3, options_.claim_poll_seconds));
    while (!deferred.empty()) {
      std::sort(deferred.begin(), deferred.end(),
                [](const Task& a, const Task& b) { return a.slot < b.slot; });
      if (!cancel_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(poll);
        try {
          store_->refresh();
        } catch (const std::exception& e) {
          for (const Task& task : deferred) {
            record(task, Outcome::kFailed, e.what());
          }
          return;
        }
      }
      deferred = pass(deferred);
    }
  }

  /// A store hit fills the task's slot; a point's is one slice assignment.
  bool lookup(const Task& task) {
    return task.baseline
               ? store_->lookup_baseline(task.key,
                                         baselines_[task.slot].goodput)
               : store_->lookup_point(task.key, tasks_.rows[task.slot]);
  }

  /// Resolve: lookup → claim → re-lookup on kDone. Returns true when the
  /// task must run here; otherwise records it (a row whose baseline failed,
  /// a skip once the sweep is cancelled, a store hit or a store error) or
  /// defers it to the peer running it. A row runs only on an ok baseline.
  bool resolve(Task& task) {
    if (!task.baseline) {
      const BaselineSlot& base = baselines_[tasks_.baseline_of[task.slot]];
      if (base.status == PointStatus::kFailed) {
        record(task, Outcome::kFailed, "baseline failed: " + base.error);
        return false;
      }
    }
    if (cancel_.load(std::memory_order_relaxed)) {
      record(task, Outcome::kSkipped);
      return false;
    }
    if (store_ == nullptr) return true;
    Outcome outcome = Outcome::kHit;
    std::string error;
    try {
      task.key = (task.baseline ? keys_.baselines : keys_.points)[task.slot];
      if (!lookup(task)) {
        const PointStore::ClaimStatus status =
            task.baseline ? store_->claim_baseline(task.key)
                          : store_->claim_point(task.key);
        if (status == PointStore::ClaimStatus::kBusy) {
          std::lock_guard<std::mutex> lock(deferred_mutex_);
          deferred_.push_back(task);
          return false;
        }
        task.claimed = status == PointStore::ClaimStatus::kAcquired;
        if (task.claimed || !lookup(task)) return true;
      }
    } catch (const std::exception& e) {
      outcome = Outcome::kFailed;
      error = e.what();
    }
    record(task, outcome, std::move(error));
    return false;
  }

  /// The one record step. A result is stored first, and a store error makes
  /// it a failure of this task; a failure gives up the task's claim so a
  /// peer can retry it at once, and cancels the sweep unless keep-going.
  void record(const Task& task, Outcome outcome, std::string error = {}) {
    if (outcome == Outcome::kResult && store_ != nullptr) {
      try {
        if (task.baseline) {
          store_->store_baseline(task.key, baselines_[task.slot].goodput);
        } else {
          store_->store_point(task.key, tasks_.rows[task.slot]);
        }
      } catch (const std::exception& e) {
        outcome = Outcome::kFailed;
        error = e.what();
      }
    }
    switch (outcome) {
      case Outcome::kHit:
      case Outcome::kResult:
        (task.baseline ? baselines_[task.slot].status
                       : tasks_.rows[task.slot].status) = PointStatus::kOk;
        (outcome == Outcome::kHit ? cache_hits_ : simulated_)
            .fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::kFailed:
        if (task.claimed) {
          try {
            if (task.baseline) {
              store_->release_baseline(task.key);
            } else {
              store_->release_point(task.key);
            }
          } catch (const std::exception& e) {
            // The lease then runs out its TTL instead.
            error += std::string("; release failed: ") + e.what();
          }
        }
        if (task.baseline) {
          baselines_[task.slot].status = PointStatus::kFailed;
          baselines_[task.slot].error = std::move(error);
        } else {
          tasks_.rows[task.slot].status = PointStatus::kFailed;
          tasks_.rows[task.slot].error = std::move(error);
        }
        if (options_.cancel_on_failure) {
          cancel_.store(true, std::memory_order_relaxed);
        }
        break;
      case Outcome::kSkipped:
        break;  // the task stays kSkipped
    }
    meter_.tick(outcome == Outcome::kHit);
  }

  /// The goodput a row is normalized by (resolve ran it on an ok one).
  BitRate baseline_goodput(const PointResult& row) const {
    return baselines_[tasks_.baseline_of[row.index]].goodput;
  }

  /// The packet executor: one run on `worker`'s warm workspace — every
  /// baseline, and every point on the packet tiers. A worker's workspace is
  /// built on its first task and keeps its arena blocks, scheduler slabs
  /// and container capacities for the next; a worker runs one task at a
  /// time, so it needs no lock.
  void run_packet(const Task& task, std::size_t worker) {
    try {
      std::unique_ptr<ScenarioWorkspace>& ws = workspaces_[worker];
      if (!ws) ws = std::make_unique<ScenarioWorkspace>();
      if (task.baseline) {
        BitRate& goodput = baselines_[task.slot].goodput;
        goodput = ws->baseline(
            spec_.make_scenario(tasks_.rows[tasks_.baselines[task.slot]].point),
            spec_.control);
        PDOS_REQUIRE(goodput > 0.0, "baseline goodput is zero");
      } else {
        PointResult& row = tasks_.rows[task.slot];
        const BitRate baseline = baseline_goodput(row);
        const ScenarioConfig scenario = spec_.make_scenario(row.point);
        const AttackPlan plan = plan_point_attack(scenario, row.point);
        fill_plan(row, plan);
        fill_measured(row,
                      ws->gain(scenario, plan.train, row.point.kappa,
                               spec_.control, baseline),
                      baseline);
      }
    } catch (const std::exception& e) {
      record(task, Outcome::kFailed, e.what());
      return;
    }
    record(task, Outcome::kResult);
  }

  /// The fluid executor, over the misses of one flows group: plans each
  /// miss (adjacent replicates share their point's plan), solves the plans
  /// kFluidBatchWidth lanes at a time, and finishes every replicate against
  /// its own baseline. The rows are bit-identical to point-at-a-time
  /// solves: solve_batch's identity contract plus seed invariance. A plan
  /// or solve error fails only the points it belongs to.
  void run_fluid(const std::vector<Task>& misses) {
    std::optional<ScenarioConfig> scenario;
    std::vector<AttackPlan> plans;
    std::vector<Task> planned;         // the misses that got a plan
    std::vector<std::size_t> plan_of;  // planned[k] uses plans[plan_of[k]]
    for (const Task& task : misses) {
      const PointResult& row = tasks_.rows[task.slot];
      try {
        if (!scenario) scenario = spec_.make_scenario(row.point);
        if (planned.empty() ||
            !same_point_axes(row.point,
                             tasks_.rows[planned.back().slot].point)) {
          plans.push_back(plan_point_attack(*scenario, row.point));
        }
      } catch (const std::exception& e) {
        record(task, Outcome::kFailed, e.what());
        continue;
      }
      planned.push_back(task);
      plan_of.push_back(plans.size() - 1);
    }
    std::vector<RunResult> runs(plans.size());
    std::vector<std::string> solve_errors(plans.size());
    for (std::size_t first = 0; first < plans.size();
         first += kFluidBatchWidth) {
      const std::size_t last = std::min(plans.size(), first + kFluidBatchWidth);
      std::vector<std::optional<PulseTrain>> attacks;
      attacks.reserve(last - first);
      for (std::size_t p = first; p < last; ++p) {
        attacks.emplace_back(plans[p].train);
      }
      try {
        std::vector<RunResult> solved =
            run_fluid_batch(*scenario, attacks, spec_.control);
        std::move(solved.begin(), solved.end(), runs.begin() + first);
      } catch (const std::exception& e) {
        std::fill(solve_errors.begin() + first, solve_errors.begin() + last,
                  e.what());
      }
    }
    for (std::size_t k = 0; k < planned.size(); ++k) {
      const std::size_t p = plan_of[k];
      PointResult& row = tasks_.rows[planned[k].slot];
      try {
        if (!solve_errors[p].empty()) throw std::runtime_error(solve_errors[p]);
        const BitRate baseline = baseline_goodput(row);
        fill_plan(row, plans[p]);
        fill_measured(row,
                      finish_gain(*scenario, plans[p].train, row.point.kappa,
                                  baseline, RunResult(runs[p])),
                      baseline);
      } catch (const std::exception& e) {
        record(planned[k], Outcome::kFailed, e.what());
        continue;
      }
      record(planned[k], Outcome::kResult);
    }
  }

  const SweepSpec& spec_;
  const SweepOptions& options_;
  int threads_;
  SweepTasks tasks_;  // its rows become the result table
  std::vector<BaselineSlot> baselines_;  // one per tasks_.baselines entry
  ProgressMeter meter_;
  std::vector<std::unique_ptr<ScenarioWorkspace>> workspaces_;  // by worker
  PointStore* store_;
  TaskKeys keys_;  // the tasks' store keys, when there is a store
  std::atomic<bool> cancel_{false};
  std::atomic<std::size_t> cache_hits_{0};
  std::atomic<std::size_t> simulated_{0};
  std::mutex deferred_mutex_;
  std::vector<Task> deferred_;  // claims a peer holds; see drain()
};

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  return SweepRun(spec, options).run();
}

std::vector<AggregateRow> aggregate_replicates(const SweepResult& result) {
  // `enumerate()` emits the replicate axis innermost, so a point's
  // replicates are adjacent.
  const std::vector<TaskGroup> groups = group_consecutive(
      result.points.size(),
      [&](std::size_t i) -> const PointSpec& { return result.points[i].point; },
      same_point_axes);
  std::vector<AggregateRow> rows;
  rows.reserve(groups.size());
  for (const TaskGroup& group : groups) {
    AggregateRow row;
    row.point = result.points[group.first].point;
    row.point.replicate = 0;
    double sum_gain = 0.0;
    double sum_deg = 0.0;
    double sum_goodput = 0.0;
    std::vector<double> gains;
    std::vector<double> degs;
    gains.reserve(group.count);
    for (std::size_t j = 0; j < group.count; ++j) {
      const PointResult& r = result.points[group.first + j];
      if (r.status != PointStatus::kOk) continue;
      gains.push_back(r.measured_gain);
      degs.push_back(r.measured_degradation);
      sum_gain += r.measured_gain;
      sum_deg += r.measured_degradation;
      sum_goodput += r.goodput;
    }
    row.replicates = gains.size();
    if (!gains.empty()) {
      const double n = static_cast<double>(gains.size());
      row.mean_gain = sum_gain / n;
      row.mean_degradation = sum_deg / n;
      row.mean_goodput = sum_goodput / n;
      if (gains.size() > 1) {
        double ss_gain = 0.0;
        double ss_deg = 0.0;
        for (std::size_t k = 0; k < gains.size(); ++k) {
          ss_gain += (gains[k] - row.mean_gain) * (gains[k] - row.mean_gain);
          ss_deg += (degs[k] - row.mean_degradation) *
                    (degs[k] - row.mean_degradation);
        }
        // Sample (n-1) stddev; 95% half-width from the normal z — replicate
        // counts are small but this matches how the figure scripts plotted
        // their error bars.
        row.stddev_gain = std::sqrt(ss_gain / (n - 1.0));
        row.stddev_degradation = std::sqrt(ss_deg / (n - 1.0));
        row.ci95_gain = 1.96 * row.stddev_gain / std::sqrt(n);
        row.ci95_degradation = 1.96 * row.stddev_degradation / std::sqrt(n);
      }
    }
    rows.push_back(row);
  }
  return rows;
}

namespace {

/// Spread statistics (stddev/CI) are undefined below two replicates: the
/// CSV cell is left empty rather than printing a misleading 0 (or a NaN if
/// a caller aggregated rows by hand).
std::string spread_csv(double value, std::size_t replicates) {
  if (replicates < 2 || !std::isfinite(value)) return "";
  return fmt(value);
}

}  // namespace

void write_aggregate_csv(const std::vector<AggregateRow>& rows,
                         std::ostream& out) {
  CsvWriter csv(out, {"scenario_flows", "textent_ms", "rattack_mbps", "gamma",
                      "kappa", "replicates", "mean_gain", "stddev_gain",
                      "ci95_gain", "mean_degradation", "stddev_degradation",
                      "ci95_degradation", "mean_goodput_mbps"});
  for (const AggregateRow& r : rows) {
    csv.row({std::to_string(r.point.flows), fmt(to_ms(r.point.textent)),
             fmt(to_mbps(r.point.rattack)), fmt(r.point.gamma),
             fmt(r.point.kappa),
             fmt(static_cast<std::uint64_t>(r.replicates)), fmt(r.mean_gain),
             spread_csv(r.stddev_gain, r.replicates),
             spread_csv(r.ci95_gain, r.replicates), fmt(r.mean_degradation),
             spread_csv(r.stddev_degradation, r.replicates),
             spread_csv(r.ci95_degradation, r.replicates),
             fmt(to_mbps(r.mean_goodput))});
  }
}

}  // namespace pdos::sweep
