#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
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
#include "sweep/point_cache.hpp"
#include "sweep/thread_pool.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pdos::sweep {

const char* scenario_kind_name(ScenarioKind kind) {
  return kind == ScenarioKind::kNs2Dumbbell ? "ns2" : "testbed";
}

std::pair<std::size_t, bool> PairIndex::insert(int a, int b,
                                               std::size_t slot) {
  const std::uint64_t key = key_of(a, b);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::uint64_t k) { return e.key < k; });
  if (it != entries_.end() && it->key == key) return {it->slot, false};
  entries_.insert(it, Entry{key, slot});
  return {slot, true};
}

std::size_t PairIndex::at(int a, int b) const {
  const std::uint64_t key = key_of(a, b);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::uint64_t k) { return e.key < k; });
  PDOS_CHECK_MSG(it != entries_.end() && it->key == key,
                 "PairIndex::at: key not present");
  return it->slot;
}

bool PairIndex::contains(int a, int b) const {
  const std::uint64_t key = key_of(a, b);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::uint64_t k) { return e.key < k; });
  return it != entries_.end() && it->key == key;
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
  config.hybrid_foreground = hybrid_foreground;
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
  }
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
        std::vector<double> grid = gammas;
        if (grid.empty()) {
          const double cpsi = c_psi(victim, textent, c_attack);
          const double lo = std::max(0.1, cpsi + 0.02);
          const double hi = 0.95;
          for (int i = 0; i < gamma_points; ++i) {
            grid.push_back(lo + (hi - lo) * i / (gamma_points - 1));
          }
        }
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

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
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

void SweepResult::write_json(std::ostream& out) const {
  out << "[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = points[i];
    out << "  {\"index\": " << r.index << ", \"flows\": " << r.point.flows
        << ", \"textent_ms\": " << fmt(to_ms(r.point.textent))
        << ", \"rattack_mbps\": " << fmt(to_mbps(r.point.rattack))
        << ", \"gamma\": " << fmt(r.point.gamma)
        << ", \"kappa\": " << fmt(r.point.kappa)
        << ", \"replicate\": " << r.point.replicate
        << ", \"seed\": " << r.seed
        << ", \"status\": \"" << status_name(r.status) << "\""
        << ", \"c_psi\": " << fmt(r.c_psi)
        << ", \"analytic_degradation\": " << fmt(r.analytic_degradation)
        << ", \"analytic_gain\": " << fmt(r.analytic_gain)
        << ", \"shrew\": " << (r.shrew ? "true" : "false")
        << ", \"baseline_mbps\": " << fmt(to_mbps(r.baseline_goodput))
        << ", \"goodput_mbps\": " << fmt(to_mbps(r.goodput))
        << ", \"measured_degradation\": " << fmt(r.measured_degradation)
        << ", \"measured_gain\": " << fmt(r.measured_gain)
        << ", \"utilization\": " << fmt(r.utilization)
        << ", \"fairness\": " << fmt(r.fairness)
        << ", \"timeouts\": " << r.timeouts
        << ", \"fast_recoveries\": " << r.fast_recoveries
        << ", \"attack_packets\": " << r.attack_packets
        << ", \"events\": " << r.events
        << ", \"error\": \"" << json_escape(r.error) << "\"}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

namespace {

/// Baseline goodput for one (flows, replicate) pair.
struct BaselineSlot {
  PointSpec probe;  // flows + replicate; attack axes unused
  BitRate goodput = 0.0;
  bool ok = false;
  std::string error;
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

/// Hands out warm ScenarioWorkspaces to sweep tasks. Each worker thread
/// runs tasks serially, so the pool never holds more workspaces than
/// threads; a released workspace keeps its arena blocks, scheduler slabs,
/// and container capacities hot for the next point.
class WorkspacePool {
 public:
  std::unique_ptr<ScenarioWorkspace> acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        auto workspace = std::move(idle_.back());
        idle_.pop_back();
        return workspace;
      }
    }
    return std::make_unique<ScenarioWorkspace>();
  }

  void release(std::unique_ptr<ScenarioWorkspace> workspace) {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(workspace));
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ScenarioWorkspace>> idle_;
};

/// RAII acquire/release so exception paths return the workspace too.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(WorkspacePool& pool)
      : pool_(pool), workspace_(pool.acquire()) {}
  ~WorkspaceLease() { pool_.release(std::move(workspace_)); }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  ScenarioWorkspace* operator->() { return workspace_.get(); }

 private:
  WorkspacePool& pool_;
  std::unique_ptr<ScenarioWorkspace> workspace_;
};

/// A contiguous run of tasks that differ only in their replicate index.
struct TaskGroup {
  std::size_t first = 0;
  std::size_t count = 0;
};

bool same_point_axes(const PointSpec& a, const PointSpec& b) {
  return a.flows == b.flows && a.textent == b.textent &&
         a.rattack == b.rattack && a.gamma == b.gamma && a.kappa == b.kappa;
}

/// Group consecutive entries whose axes match (`enumerate()` emits the
/// replicate axis innermost, so a point's replicates are always adjacent).
template <typename GetSpec>
std::vector<TaskGroup> group_consecutive(std::size_t n, GetSpec&& spec_of) {
  std::vector<TaskGroup> groups;
  for (std::size_t i = 0; i < n; ++i) {
    if (!groups.empty()) {
      TaskGroup& last = groups.back();
      if (same_point_axes(spec_of(last.first), spec_of(i))) {
        ++last.count;
        continue;
      }
    }
    groups.push_back(TaskGroup{i, 1});
  }
  return groups;
}

/// Group consecutive entries sharing a flows value. On the fluid tier all
/// points with the same flows share one topology (make_scenario varies only
/// in the seed, which the fluid solver never reads), so each group is one
/// lane-batched solve_batch workload (DESIGN.md §16). `enumerate()` emits
/// flows as the outermost axis, so these groups cover whole flows blocks.
template <typename GetSpec>
std::vector<TaskGroup> group_by_flows(std::size_t n, GetSpec&& spec_of) {
  std::vector<TaskGroup> groups;
  for (std::size_t i = 0; i < n; ++i) {
    if (!groups.empty() &&
        spec_of(groups.back().first).flows == spec_of(i).flows) {
      ++groups.back().count;
      continue;
    }
    groups.push_back(TaskGroup{i, 1});
  }
  return groups;
}

/// Lanes per fluid solve_batch call in the fluid-tier point path: two
/// full SIMD chunks — wide enough to amortize the per-step scalar driver,
/// small enough that a ragged tail wastes little work. Not a result knob:
/// batched lanes are bit-identical to single-point solves at any width.
constexpr std::size_t kFluidBatchWidth = 8;

}  // namespace

namespace {

void fill_cached_point(PointResult& slot, const CachedPoint& hit) {
  slot.c_psi = hit.c_psi;
  slot.analytic_degradation = hit.analytic_degradation;
  slot.analytic_gain = hit.analytic_gain;
  slot.shrew = hit.shrew;
  slot.baseline_goodput = hit.baseline_goodput;
  slot.goodput = hit.goodput;
  slot.measured_degradation = hit.measured_degradation;
  slot.measured_gain = hit.measured_gain;
  slot.utilization = hit.utilization;
  slot.fairness = hit.fairness;
  slot.timeouts = hit.timeouts;
  slot.fast_recoveries = hit.fast_recoveries;
  slot.attack_packets = hit.attack_packets;
  slot.events = hit.events;
  slot.status = PointStatus::kOk;
}

CachedPoint to_cached_point(const PointResult& slot) {
  CachedPoint record;
  record.c_psi = slot.c_psi;
  record.analytic_degradation = slot.analytic_degradation;
  record.analytic_gain = slot.analytic_gain;
  record.shrew = slot.shrew;
  record.baseline_goodput = slot.baseline_goodput;
  record.goodput = slot.goodput;
  record.measured_degradation = slot.measured_degradation;
  record.measured_gain = slot.measured_gain;
  record.utilization = slot.utilization;
  record.fairness = slot.fairness;
  record.timeouts = slot.timeouts;
  record.fast_recoveries = slot.fast_recoveries;
  record.attack_packets = slot.attack_packets;
  record.events = slot.events;
  return record;
}

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
  slot.status = PointStatus::kOk;
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  const std::vector<PointSpec> points = spec.enumerate();

  // Unique (flows, replicate) pairs, in stable order of first appearance.
  PairIndex baseline_index;
  std::vector<BaselineSlot> baselines;
  for (const PointSpec& point : points) {
    if (baseline_index.insert(point.flows, point.replicate, baselines.size())
            .second) {
      BaselineSlot slot;
      slot.probe = point;
      baselines.push_back(slot);
    }
  }

  SweepResult result;
  result.points.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult& slot = result.points[i];
    slot.index = i;
    slot.point = points[i];
    slot.seed = replicate_seed(spec.base_seed, points[i].replicate);
  }

  ThreadPool pool(options.threads);
  result.threads = pool.size();
  ProgressMeter meter(baselines.size() + points.size(), options.on_progress);
  std::atomic<bool> cancel{false};
  std::atomic<std::size_t> cache_hits{0};
  std::atomic<std::size_t> simulated{0};
  WorkspacePool workspaces;
  std::unique_ptr<PointCache> owned_cache;
  PointStore* store = options.store;
  if (store == nullptr && !options.cache_path.empty()) {
    owned_cache = std::make_unique<PointCache>(options.cache_path);
    store = owned_cache.get();
  }
  // Keys are hashed only when there is a store to address.
  std::optional<SweepKeys> keys;
  if (store) keys.emplace(spec);
  // Tasks another process holds a live lease on (claim returned kBusy):
  // deferred here and drained after each phase's main pass, so a pool
  // worker never idles waiting on a peer process.
  std::mutex deferred_mutex;
  std::vector<std::size_t> deferred_baselines;
  std::vector<std::size_t> deferred_points;
  const auto poll_interval = std::chrono::duration<double>(
      std::max(1e-3, options.claim_poll_seconds));
  using ClaimStatus = PointStore::ClaimStatus;
  const auto start = std::chrono::steady_clock::now();

  // Phase 1: baselines. Each runs the no-attack scenario with the same
  // seed as the attack points it will normalize.
  parallel_for(pool, baselines.size(), [&](std::size_t i) {
    BaselineSlot& slot = baselines[i];
    if (cancel.load(std::memory_order_relaxed)) {
      slot.error = "skipped: sweep cancelled";
      meter.tick(false);
      return;
    }
    const std::uint64_t seed =
        replicate_seed(spec.base_seed, slot.probe.replicate);
    const std::uint64_t key =
        store ? keys->baseline(slot.probe, seed) : 0;
    bool hit = false;
    bool claimed = false;
    try {
      double cached = 0.0;
      if (store && store->lookup_baseline(key, cached)) {
        slot.goodput = cached;
        hit = true;
        cache_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        if (store) {
          const ClaimStatus st = store->claim_baseline(key);
          if (st == ClaimStatus::kBusy) {
            // A peer process is simulating this baseline; the drain pass
            // resolves it (and ticks the meter).
            std::lock_guard<std::mutex> lock(deferred_mutex);
            deferred_baselines.push_back(i);
            return;
          }
          if (st == ClaimStatus::kDone &&
              store->lookup_baseline(key, cached)) {
            slot.goodput = cached;
            hit = true;
            cache_hits.fetch_add(1, std::memory_order_relaxed);
          } else {
            claimed = true;
          }
        }
        if (!hit) {
          const ScenarioConfig scenario = spec.make_scenario(slot.probe);
          WorkspaceLease ws(workspaces);
          slot.goodput = ws->baseline(scenario, spec.control);
          if (store) store->store_baseline(key, slot.goodput);
          simulated.fetch_add(1, std::memory_order_relaxed);
        }
      }
      PDOS_REQUIRE(slot.goodput > 0.0, "baseline goodput is zero");
      slot.ok = true;
    } catch (const std::exception& e) {
      if (claimed) store->release_baseline(key);
      slot.error = e.what();
      if (options.cancel_on_failure) {
        cancel.store(true, std::memory_order_relaxed);
      }
    }
    meter.tick(hit);
  });

  // Drain baselines leased to peer processes: poll the store for their
  // results; once a lease expires unfulfilled (crashed peer) the claim
  // succeeds here and we simulate locally. Every wait is bounded by the
  // lease TTL, so the loop terminates.
  while (store && !deferred_baselines.empty()) {
    if (cancel.load(std::memory_order_relaxed)) {
      for (std::size_t i : deferred_baselines) {
        baselines[i].error = "skipped: sweep cancelled";
        meter.tick(false);
      }
      deferred_baselines.clear();
      break;
    }
    std::this_thread::sleep_for(poll_interval);
    store->refresh();
    std::vector<std::size_t> still;
    for (std::size_t i : deferred_baselines) {
      BaselineSlot& slot = baselines[i];
      const std::uint64_t seed =
          replicate_seed(spec.base_seed, slot.probe.replicate);
      const std::uint64_t key = keys->baseline(slot.probe, seed);
      bool claimed = false;
      try {
        double cached = 0.0;
        if (store->lookup_baseline(key, cached)) {
          slot.goodput = cached;
          cache_hits.fetch_add(1, std::memory_order_relaxed);
          PDOS_REQUIRE(slot.goodput > 0.0, "baseline goodput is zero");
          slot.ok = true;
          meter.tick(true);
          continue;
        }
        const ClaimStatus st = store->claim_baseline(key);
        if (st == ClaimStatus::kBusy) {
          still.push_back(i);
          continue;
        }
        if (st == ClaimStatus::kDone && store->lookup_baseline(key, cached)) {
          slot.goodput = cached;
          cache_hits.fetch_add(1, std::memory_order_relaxed);
          PDOS_REQUIRE(slot.goodput > 0.0, "baseline goodput is zero");
          slot.ok = true;
          meter.tick(true);
          continue;
        }
        claimed = (st == ClaimStatus::kAcquired);
        const ScenarioConfig scenario = spec.make_scenario(slot.probe);
        {
          WorkspaceLease ws(workspaces);
          slot.goodput = ws->baseline(scenario, spec.control);
        }
        store->store_baseline(key, slot.goodput);
        simulated.fetch_add(1, std::memory_order_relaxed);
        PDOS_REQUIRE(slot.goodput > 0.0, "baseline goodput is zero");
        slot.ok = true;
        meter.tick(false);
      } catch (const std::exception& e) {
        if (claimed) store->release_baseline(key);
        slot.error = e.what();
        if (options.cancel_on_failure) {
          cancel.store(true, std::memory_order_relaxed);
        }
        meter.tick(false);
      }
    }
    deferred_baselines.swap(still);
  }

  // Phase 2: the points themselves.
  if (spec.backend == Backend::kFluid) {
    // Fluid tier (DESIGN.md §16): each flows-group shares one topology and
    // the solver is seed-invariant, so the group's cache misses collapse to
    // their unique attack plans — solved as lanes of lane-batched fluid
    // evaluations, kFluidBatchWidth at a time — and every replicate is
    // finished against its own baseline. The records this path stores are
    // bit-identical to the point-at-a-time path's: solve_batch's identity
    // contract plus seed invariance (run_fluid_backend never reads
    // config.seed), so one solve serves every replicate of a plan.
    const std::vector<TaskGroup> groups =
        group_by_flows(points.size(), [&](std::size_t i) -> const PointSpec& {
          return points[i];
        });
    parallel_for(pool, groups.size(), [&](std::size_t gi) {
      const TaskGroup group = groups[gi];
      if (cancel.load(std::memory_order_relaxed)) {
        for (std::size_t j = 0; j < group.count; ++j) {
          meter.tick(false);  // slots stay kSkipped
        }
        return;
      }
      std::vector<std::size_t> miss;
      std::vector<std::uint64_t> miss_keys;
      for (std::size_t j = 0; j < group.count; ++j) {
        const std::size_t i = group.first + j;
        PointResult& slot = result.points[i];
        const std::uint64_t key =
            store ? keys->point(slot.point, slot.seed) : 0;
        CachedPoint cached;
        if (store && store->lookup_point(key, cached)) {
          fill_cached_point(slot, cached);
          cache_hits.fetch_add(1, std::memory_order_relaxed);
          meter.tick(true);
          continue;
        }
        if (store) {
          const ClaimStatus st = store->claim_point(key);
          if (st == ClaimStatus::kBusy) {
            std::lock_guard<std::mutex> lock(deferred_mutex);
            deferred_points.push_back(i);
            continue;
          }
          if (st == ClaimStatus::kDone && store->lookup_point(key, cached)) {
            fill_cached_point(slot, cached);
            cache_hits.fetch_add(1, std::memory_order_relaxed);
            meter.tick(true);
            continue;
          }
        }
        miss.push_back(i);
        miss_keys.push_back(key);
      }
      if (miss.empty()) return;
      try {
        // One topology per group: the derived scenarios differ only in
        // their (unread) seed.
        const ScenarioConfig scenario =
            spec.make_scenario(points[miss.front()]);
        // Unique plans among the misses. Axes-equal points stay adjacent
        // through the cache pass, so one backward comparison suffices.
        std::vector<AttackPlan> plans;
        std::vector<std::size_t> plan_of(miss.size());
        std::vector<std::size_t> plan_first;
        for (std::size_t k = 0; k < miss.size(); ++k) {
          if (!plan_first.empty() &&
              same_point_axes(points[miss[k]],
                              points[miss[plan_first.back()]])) {
            plan_of[k] = plan_first.size() - 1;
            continue;
          }
          plan_first.push_back(k);
          plan_of[k] = plans.size();
          plans.push_back(plan_point_attack(scenario, points[miss[k]]));
        }
        std::vector<RunResult> plan_runs(plans.size());
        for (std::size_t start = 0; start < plans.size();
             start += kFluidBatchWidth) {
          const std::size_t stop =
              std::min(plans.size(), start + kFluidBatchWidth);
          std::vector<std::optional<PulseTrain>> attacks;
          attacks.reserve(stop - start);
          for (std::size_t p = start; p < stop; ++p) {
            attacks.emplace_back(plans[p].train);
          }
          std::vector<RunResult> solved =
              run_fluid_batch(scenario, attacks, spec.control);
          for (std::size_t p = start; p < stop; ++p) {
            plan_runs[p] = std::move(solved[p - start]);
          }
        }
        for (std::size_t k = 0; k < miss.size(); ++k) {
          PointResult& slot = result.points[miss[k]];
          const BaselineSlot& baseline = baselines[baseline_index.at(
              slot.point.flows, slot.point.replicate)];
          if (!baseline.ok) {
            if (store) store->release_point(miss_keys[k]);
            slot.status = PointStatus::kFailed;
            slot.error = "baseline failed: " + baseline.error;
            if (options.cancel_on_failure) {
              cancel.store(true, std::memory_order_relaxed);
            }
            meter.tick(false);
            continue;
          }
          const std::size_t p = plan_of[k];
          const GainMeasurement measured =
              finish_gain(scenario, plans[p].train, slot.point.kappa,
                          baseline.goodput, RunResult(plan_runs[p]));
          fill_plan(slot, plans[p]);
          fill_measured(slot, measured, baseline.goodput);
          if (store) store->store_point(miss_keys[k], to_cached_point(slot));
          simulated.fetch_add(1, std::memory_order_relaxed);
          meter.tick(false);
        }
      } catch (const std::exception& e) {
        // Planning or a batched solve failed: every unresolved replicate
        // inherits the error and gives up its claim.
        for (std::size_t k = 0; k < miss.size(); ++k) {
          PointResult& slot = result.points[miss[k]];
          if (slot.status != PointStatus::kSkipped) continue;
          if (store) store->release_point(miss_keys[k]);
          slot.status = PointStatus::kFailed;
          slot.error = e.what();
          meter.tick(false);
        }
        if (options.cancel_on_failure) {
          cancel.store(true, std::memory_order_relaxed);
        }
      }
    });
  } else {
    parallel_for(pool, points.size(), [&](std::size_t i) {
      PointResult& slot = result.points[i];
      if (cancel.load(std::memory_order_relaxed)) {
        meter.tick(false);
        return;  // stays kSkipped
      }
      const std::uint64_t key =
          store ? keys->point(slot.point, slot.seed) : 0;
      bool hit = false;
      bool claimed = false;
      try {
        // A cached point carries everything, including its baseline — it can
        // complete even when this run's baseline task failed.
        CachedPoint cached;
        if (store && store->lookup_point(key, cached)) {
          fill_cached_point(slot, cached);
          cache_hits.fetch_add(1, std::memory_order_relaxed);
          meter.tick(true);
          return;
        }
        if (store) {
          const ClaimStatus st = store->claim_point(key);
          if (st == ClaimStatus::kBusy) {
            std::lock_guard<std::mutex> lock(deferred_mutex);
            deferred_points.push_back(i);
            return;  // resolved (and ticked) by the drain pass
          }
          if (st == ClaimStatus::kDone && store->lookup_point(key, cached)) {
            fill_cached_point(slot, cached);
            cache_hits.fetch_add(1, std::memory_order_relaxed);
            meter.tick(true);
            return;
          }
          claimed = (st == ClaimStatus::kAcquired);
        }

        const BaselineSlot& baseline = baselines[baseline_index.at(
            slot.point.flows, slot.point.replicate)];
        if (!baseline.ok) {
          throw std::runtime_error("baseline failed: " + baseline.error);
        }
        const ScenarioConfig scenario = spec.make_scenario(slot.point);
        const AttackPlan plan = plan_point_attack(scenario, slot.point);
        fill_plan(slot, plan);

        GainMeasurement measured;
        {
          WorkspaceLease ws(workspaces);
          measured = ws->gain(scenario, plan.train, slot.point.kappa,
                              spec.control, baseline.goodput);
        }
        fill_measured(slot, measured, baseline.goodput);
        if (store) store->store_point(key, to_cached_point(slot));
        simulated.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        if (claimed) store->release_point(key);
        slot.status = PointStatus::kFailed;
        slot.error = e.what();
        if (options.cancel_on_failure) {
          cancel.store(true, std::memory_order_relaxed);
        }
      }
      meter.tick(hit);
    });
  }

  // Drain points leased to peer processes (same protocol as the baseline
  // drain above).
  while (store && !deferred_points.empty()) {
    if (cancel.load(std::memory_order_relaxed)) {
      for (std::size_t i : deferred_points) {
        (void)i;
        meter.tick(false);  // slots stay kSkipped
      }
      deferred_points.clear();
      break;
    }
    std::this_thread::sleep_for(poll_interval);
    store->refresh();
    std::vector<std::size_t> still;
    for (std::size_t i : deferred_points) {
      PointResult& slot = result.points[i];
      const std::uint64_t key = keys->point(slot.point, slot.seed);
      bool claimed = false;
      try {
        CachedPoint cached;
        if (store->lookup_point(key, cached)) {
          fill_cached_point(slot, cached);
          cache_hits.fetch_add(1, std::memory_order_relaxed);
          meter.tick(true);
          continue;
        }
        const ClaimStatus st = store->claim_point(key);
        if (st == ClaimStatus::kBusy) {
          still.push_back(i);
          continue;
        }
        if (st == ClaimStatus::kDone && store->lookup_point(key, cached)) {
          fill_cached_point(slot, cached);
          cache_hits.fetch_add(1, std::memory_order_relaxed);
          meter.tick(true);
          continue;
        }
        claimed = (st == ClaimStatus::kAcquired);
        const BaselineSlot& baseline = baselines[baseline_index.at(
            slot.point.flows, slot.point.replicate)];
        if (!baseline.ok) {
          throw std::runtime_error("baseline failed: " + baseline.error);
        }
        const ScenarioConfig scenario = spec.make_scenario(slot.point);
        const AttackPlan plan = plan_point_attack(scenario, slot.point);
        fill_plan(slot, plan);
        GainMeasurement measured;
        {
          WorkspaceLease ws(workspaces);
          measured = ws->gain(scenario, plan.train, slot.point.kappa,
                              spec.control, baseline.goodput);
        }
        fill_measured(slot, measured, baseline.goodput);
        store->store_point(key, to_cached_point(slot));
        simulated.fetch_add(1, std::memory_order_relaxed);
        meter.tick(false);
      } catch (const std::exception& e) {
        if (claimed) store->release_point(key);
        slot.status = PointStatus::kFailed;
        slot.error = e.what();
        if (options.cancel_on_failure) {
          cancel.store(true, std::memory_order_relaxed);
        }
        meter.tick(false);
      }
    }
    deferred_points.swap(still);
  }

  result.cache_hits = cache_hits.load(std::memory_order_relaxed);
  result.simulated = simulated.load(std::memory_order_relaxed);

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.cancelled = cancel.load(std::memory_order_relaxed);
  return result;
}

std::vector<AggregateRow> aggregate_replicates(const SweepResult& result) {
  const std::vector<TaskGroup> groups = group_consecutive(
      result.points.size(),
      [&](std::size_t i) -> const PointSpec& { return result.points[i].point; });
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
/// a caller aggregated rows by hand). JSON, which has no empty-number
/// notion, emits 0 for the same cases.
std::string spread_csv(double value, std::size_t replicates) {
  if (replicates < 2 || !std::isfinite(value)) return "";
  return fmt(value);
}

double spread_json(double value, std::size_t replicates) {
  if (replicates < 2 || !std::isfinite(value)) return 0.0;
  return value;
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

void write_aggregate_json(const std::vector<AggregateRow>& rows,
                          std::ostream& out) {
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AggregateRow& r = rows[i];
    out << "  {\"flows\": " << r.point.flows
        << ", \"textent_ms\": " << fmt(to_ms(r.point.textent))
        << ", \"rattack_mbps\": " << fmt(to_mbps(r.point.rattack))
        << ", \"gamma\": " << fmt(r.point.gamma)
        << ", \"kappa\": " << fmt(r.point.kappa)
        << ", \"replicates\": " << r.replicates
        << ", \"mean_gain\": " << fmt(r.mean_gain)
        << ", \"stddev_gain\": " << fmt(spread_json(r.stddev_gain, r.replicates))
        << ", \"ci95_gain\": " << fmt(spread_json(r.ci95_gain, r.replicates))
        << ", \"mean_degradation\": " << fmt(r.mean_degradation)
        << ", \"stddev_degradation\": "
        << fmt(spread_json(r.stddev_degradation, r.replicates))
        << ", \"ci95_degradation\": "
        << fmt(spread_json(r.ci95_degradation, r.replicates))
        << ", \"mean_goodput_mbps\": " << fmt(to_mbps(r.mean_goodput)) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace pdos::sweep
