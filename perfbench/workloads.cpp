// The four workloads. Each one times at least kSetupReps set-ups (setup_s
// is their median), then runs its closed loop untraced for the end-to-end
// metrics. A traced run runs the loop untraced for half its time and with
// spans around the benchmark's own calls into the library for the other
// half, runs a counter probe where the public results do not carry the
// per-layer counts, and reduces the spans to per-layer metrics.
//
// The seed picks the order of the calls in paper_sweep, gamma_search and
// gigabit_fast, and fluid_campaign's base seed, which the seed-invariant
// fluid tier never reads. The calls themselves are fixed grids, so their
// outputs can be checked against the values in expected.hpp.
#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "core/planner.hpp"
#include "expected.hpp"
#include "fluid/fluid.hpp"
#include "measure.hpp"
#include "sweep/campaign_store.hpp"
#include "sweep/point_cache.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {
namespace {

using namespace pdos;
namespace fs = std::filesystem;

constexpr int kSetupReps = 20;
constexpr int kSweepThreads = 4;

// ------------------------------------------------------------- utilities

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// SplitMix64, the benchmark's only source of randomness.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

std::vector<std::size_t> permutation(std::size_t n, SeedStream& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next() % i]);
  }
  return order;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Moves the calling thread to the next CPU the process may use, one CPU
/// at a time. Restores the original CPU mask when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(mask_), &mask_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// CPUs visited by a full rotation (at least 1).
  std::size_t size() const { return std::max<std::size_t>(cpus_.size(), 1); }
  const std::vector<int>& cpus() const { return cpus_; }
  const cpu_set_t& mask() const { return mask_; }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// While alive, moves every other thread of the process to the next CPU
/// every 10 ms. On a shared virtual machine the CPUs run at different
/// speeds, which change by the second; left alone, the scheduler keeps a
/// busy thread on one of them, and a single-threaded loop measures that CPU
/// rather than the machine. Restores the CPU masks when destroyed.
class CpuSpreader {
 public:
  CpuSpreader() : thread_([this] { run(); }) {}
  ~CpuSpreader() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
    pin_others(rotation_.mask());
  }
  CpuSpreader(const CpuSpreader&) = delete;
  CpuSpreader& operator=(const CpuSpreader&) = delete;

 private:
  void run() {
    self_ = static_cast<pid_t>(syscall(SYS_gettid));
    const std::vector<int>& cpus = rotation_.cpus();
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t k = 0;
         cpus.size() > 1 && !wake_.wait_for(lock, std::chrono::milliseconds(10),
                                            [this] { return stop_; });
         ++k) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[k % cpus.size()], &one);
      pin_others(one);
    }
  }

  /// Sets the CPU mask of every thread of the process but the spreader's.
  void pin_others(const cpu_set_t& mask) const {
    std::error_code error;
    for (fs::directory_iterator task("/proc/self/task", error), end;
         !error && task != end; task.increment(error)) {
      const auto tid =
          static_cast<pid_t>(std::atol(task->path().filename().c_str()));
      if (tid != self_) sched_setaffinity(tid, sizeof(mask), &mask);
    }
  }

  CpuRotation rotation_;  // the CPUs and the original mask
  std::mutex mutex_;      // guards stop_
  std::condition_variable wake_;
  bool stop_ = false;
  pid_t self_ = 0;  // the spreader's thread id
  std::thread thread_;
};

RunControl control_of(double warmup_s, double measure_s) {
  RunControl control;
  control.warmup = sec(warmup_s);
  control.measure = sec(measure_s);
  return control;
}

/// No warmup and a 1 ms measurement: the run costs its build, not events.
RunControl setup_only_control() { return control_of(0.0, 1e-3); }

bool same_name(const Span& span, const char* name) {
  return std::strcmp(span.name, name) == 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Timings of one loop. A pass is a workload's whole fixed work, made of
/// units (one figure grid, search, run, or cold-pass call each);
/// `units[u]` holds the seconds of every time unit u ran. A call is one
/// closed-loop call, timed for call_p50_s; on every workload but
/// fluid_campaign the calls are the units.
struct Loop {
  explicit Loop(std::size_t units) : units(units) {}
  std::vector<std::vector<double>> units;
  std::vector<double> calls;
};

/// Seconds of a median pass: each unit's median time, summed over the
/// units. A slow stretch of the shared host then slows only the samples it
/// falls on, and a cold first pass counts once per unit, not once per pass.
double median_pass(const Loop& loop) {
  double total = 0.0;
  for (const std::vector<double>& samples : loop.units) total += median(samples);
  return total;
}

/// Measured time of one loop: a traced run splits --seconds between its
/// untraced and its traced loop.
double loop_seconds(const Options& opt) {
  return opt.trace ? opt.seconds / 2.0 : opt.seconds;
}

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Run `round` back to back until `seconds` have passed, at least once.
template <typename F>
void repeat_for(double seconds, F&& round) {
  const std::int64_t deadline = deadline_after(seconds);
  do {
    round();
  } while (now_ns() < deadline);
}

/// Run `unit(u)` for every u < n in a seed-drawn order, round after round,
/// until `seconds` have passed. Only the first round is always completed.
template <typename F>
void run_units(double seconds, std::size_t n, SeedStream& rng, F&& unit) {
  const std::int64_t deadline = deadline_after(seconds);
  for (bool first = true;; first = false) {
    for (std::size_t u : permutation(n, rng)) {
      if (!first && now_ns() >= deadline) return;
      unit(u);
    }
  }
}

std::string describe_timing(const char* what, const std::vector<double>& v,
                            double scale, const char* unit) {
  std::string text = format("%s: n=%zu median=%.6g %s", what, v.size(),
                            median(v) * scale, unit);
  if (const std::optional<Tail> tail = highest_tail(v)) {
    text += format(" p%g=%.6g %s", tail->q * 100.0, tail->value * scale, unit);
  } else {
    text += " (under 20 samples: no percentile has 10 samples beyond it)";
  }
  return text;
}

/// `points` and `sim_seconds` are the grid points one pass resolves and the
/// simulated seconds of the runs behind them.
void report_end_to_end(Report& r, const std::vector<double>& setups,
                       const Loop& loop, double points, double sim_seconds,
                       const char* call, const char* unit) {
  const double pass = median_pass(loop);
  r.values["setup_s"] = median(setups);
  r.values["points_per_s"] = ratio(points, pass);
  r.values["call_p50_s"] = median(loop.calls);
  r.values["sim_s_per_s"] = ratio(sim_seconds, pass);
  r.values["peak_rss_mb"] = peak_rss_mb();
  r.lines.push_back(describe_timing("set-up", setups, 1.0, "s"));
  r.lines.push_back(describe_timing(call, loop.calls, 1.0, "s"));
  std::size_t least = loop.units.front().size();
  for (const std::vector<double>& samples : loop.units) {
    least = std::min(least, samples.size());
  }
  r.lines.push_back(format("median pass: %.6g s for %g points, the sum over "
                           "%zu units (%s) of each unit's median over at "
                           "least %zu samples",
                           pass, points, loop.units.size(), unit, least));
}

/// The first cold build: a set-up-only run in a fresh workspace, which the
/// caller may keep warm.
std::unique_ptr<ScenarioWorkspace> cold_build(
    const ScenarioConfig& config, const std::optional<PulseTrain>& attack,
    Tracer* tracer) {
  const std::int64_t t0 = now_ns();
  auto ws = std::make_unique<ScenarioWorkspace>();
  ws->run(config, attack, setup_only_control());
  if (tracer) tracer->add("core.cold_build", t0, now_ns(), -1, 0);
  return ws;
}

/// Times set-ups for setup_s, the same number on every CPU: on each CPU in
/// turn, one untimed set-up warms that CPU's caches, then at least
/// kSetupReps / CPUs timed ones follow. A set-up that starts right after a
/// move to another CPU measures how far apart the two CPUs' caches are,
/// which the virtual machine's host changes from minute to minute.
template <typename F>
std::vector<double> time_setups(F&& setup) {
  CpuRotation cpus;
  const std::size_t per_cpu = (kSetupReps + cpus.size() - 1) / cpus.size();
  std::vector<double> seconds;
  for (std::size_t c = 0; c < cpus.size(); ++c) {
    cpus.next();
    setup();
    for (std::size_t rep = 0; rep < per_cpu; ++rep) {
      const std::int64_t t0 = now_ns();
      setup();
      seconds.push_back(seconds_between(t0, now_ns()));
    }
  }
  return seconds;
}

/// kSetupReps set-up-only runs in a workspace that has already built once.
void warm_builds(ScenarioWorkspace& ws, const ScenarioConfig& config,
                 const std::optional<PulseTrain>& attack, Tracer& tracer) {
  for (int i = 0; i < kSetupReps; ++i) {
    const std::int64_t t0 = now_ns();
    ws.run(config, attack, setup_only_control());
    tracer.add("core.warm_build", t0, now_ns(), -1, 0);
  }
}

/// Spans and their self times, with per-name queries.
struct Reduced {
  std::vector<Span> spans;
  std::vector<std::int64_t> self;

  /// Takes the tracer's spans, reduces them to self time, and writes both
  /// to <workdir>/spans-<workload>.tsv.
  Reduced(const Tracer& tracer, const Options& opt, Report& r)
      : spans(tracer.spans()), self(self_times(spans)) {
    const std::string path =
        (fs::path(opt.workdir) / ("spans-" + opt.workload + ".tsv")).string();
    r.lines.push_back(write_spans(spans, self, path)
                          ? format("spans: %zu written to %s", spans.size(),
                                   path.c_str())
                          : "spans: could not write " + path);
  }

  /// Durations of the spans called `name`, in units of `unit_ns`.
  std::vector<double> durations(const char* name, double unit_ns) const {
    std::vector<double> out;
    for (const Span& s : spans) {
      if (same_name(s, name)) {
        out.push_back(static_cast<double>(s.end - s.start) / unit_ns);
      }
    }
    return out;
  }

  std::vector<double> self_of(const char* name, double unit_ns) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (same_name(spans[i], name)) {
        out.push_back(static_cast<double>(self[i]) / unit_ns);
      }
    }
    return out;
  }
};

void report_builds(Report& r, const Reduced& red) {
  r.values["core.cold_build_us"] = median(red.durations("core.cold_build", 1e3));
  r.values["core.warm_build_us"] = median(red.durations("core.warm_build", 1e3));
}

/// p50 and, from 100 samples on, p90 of one-run or one-task timings.
void report_p50_p90(Report& r, const std::string& prefix,
                    const std::vector<double>& ms) {
  r.values[prefix + "_p50"] = median(ms);
  r.values[prefix + "_p90"] = ms.size() >= 100 ? percentile(ms, 0.9) : 0.0;
  r.lines.push_back(describe_timing(prefix.c_str(), ms, 1.0, "ms"));
}

void report_overhead(Report& r, const Loop& plain, const Loop& traced) {
  const double base = median_pass(plain);
  r.values["trace.overhead"] = ratio(median_pass(traced) - base, base);
  r.lines.push_back(format("trace.overhead: median pass %.6g s traced vs "
                           "%.6g s untraced",
                           median_pass(traced), base));
}

/// Bottleneck and TCP counters summed over packet runs.
struct PacketCounters {
  double runs = 0, events = 0, pkts = 0, drops = 0, early = 0, forced = 0;
  double timeouts = 0, fast_recoveries = 0, retransmits = 0, attack = 0;

  void add(const RunResult& run) {
    runs += 1;
    events += static_cast<double>(run.events_executed);
    pkts += static_cast<double>(run.bottleneck_queue.enqueued +
                                run.bottleneck_queue.dropped);
    drops += static_cast<double>(run.bottleneck_queue.dropped);
    early += static_cast<double>(run.red_early_drops);
    forced += static_cast<double>(run.red_forced_drops);
    timeouts += static_cast<double>(run.total_timeouts);
    fast_recoveries += static_cast<double>(run.total_fast_recoveries);
    retransmits += static_cast<double>(run.total_retransmits);
    attack += static_cast<double>(run.attack_packets_sent);
  }

  void report(Report& r, const char* scope) const {
    r.values["net.pkts"] = pkts;
    r.values["net.drops"] = drops;
    r.values["net.red_early_drops"] = early;
    r.values["net.red_forced_drops"] = forced;
    r.values["net.events_per_pkt"] = ratio(events, pkts);
    r.values["tcp.timeouts"] = timeouts;
    r.values["tcp.fast_recoveries"] = fast_recoveries;
    r.values["tcp.retransmits"] = retransmits;
    r.values["attack.pkts"] = attack;
    r.lines.push_back(format("net, tcp, attack: summed over %.0f packet runs "
                             "(%s)",
                             runs, scope));
  }
};

// ------------------------------------------------------- sweep tracing

/// PointStore with no file behind it, for the traced paper_sweep: the sweep
/// takes its store code path without any I/O.
class MemoryStore final : public sweep::PointStore {
 public:
  bool lookup_point(std::uint64_t key, sweep::CachedPoint& out) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = points_.find(key);
    if (it == points_.end()) return false;
    out = it->second;
    return true;
  }
  bool lookup_baseline(std::uint64_t key, double& goodput) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = baselines_.find(key);
    if (it == baselines_.end()) return false;
    goodput = it->second;
    return true;
  }
  void store_point(std::uint64_t key, const sweep::CachedPoint& value) override {
    std::lock_guard<std::mutex> lock(mutex_);
    points_[key] = value;
  }
  void store_baseline(std::uint64_t key, double goodput) override {
    std::lock_guard<std::mutex> lock(mutex_);
    baselines_[key] = goodput;
  }
  std::size_t size() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return points_.size() + baselines_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, sweep::CachedPoint> points_;
  std::unordered_map<std::uint64_t, double> baselines_;
};

/// Pass-through PointStore decorator: forwards every call to `inner` and
/// records a span around it. The interval from a key's claim to its store
/// on the same thread is that task's simulation, recorded as a "sweep.task"
/// span and made the parent of the claim and append spans.
class TracingStore final : public sweep::PointStore {
 public:
  TracingStore(sweep::PointStore& inner, Tracer& tracer, std::int64_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  bool lookup_point(std::uint64_t key, sweep::CachedPoint& out) const override {
    const std::int64_t t0 = now_ns();
    const bool hit = inner_.lookup_point(key, out);
    note_lookup(t0, key, hit);
    return hit;
  }
  bool lookup_baseline(std::uint64_t key, double& goodput) const override {
    const std::int64_t t0 = now_ns();
    const bool hit = inner_.lookup_baseline(key, goodput);
    note_lookup(t0, key, hit);
    return hit;
  }
  void store_point(std::uint64_t key, const sweep::CachedPoint& value) override {
    const std::int64_t t0 = now_ns();
    inner_.store_point(key, value);
    finish_task(t0, key, pending_points_);
  }
  void store_baseline(std::uint64_t key, double goodput) override {
    const std::int64_t t0 = now_ns();
    inner_.store_baseline(key, goodput);
    finish_task(t0, key, pending_baselines_);
  }
  std::size_t size() const override { return inner_.size(); }
  ClaimStatus claim_point(std::uint64_t key) override {
    const std::int64_t t0 = now_ns();
    const ClaimStatus status = inner_.claim_point(key);
    note_claim(t0, key, status, pending_points_);
    return status;
  }
  ClaimStatus claim_baseline(std::uint64_t key) override {
    const std::int64_t t0 = now_ns();
    const ClaimStatus status = inner_.claim_baseline(key);
    note_claim(t0, key, status, pending_baselines_);
    return status;
  }
  void release_point(std::uint64_t key) override { inner_.release_point(key); }
  void release_baseline(std::uint64_t key) override {
    inner_.release_baseline(key);
  }
  void refresh() override { inner_.refresh(); }

  std::size_t lookups() const { return lookups_; }
  std::size_t hits() const { return hits_; }

 private:
  struct Claim {
    std::int64_t start;
    std::size_t span;
    std::uint32_t thread;
  };
  using Pending = std::unordered_map<std::uint64_t, Claim>;

  void note_lookup(std::int64_t t0, std::uint64_t key, bool hit) const {
    tracer_.add("store.lookup", t0, now_ns(), parent_, key);
    std::lock_guard<std::mutex> lock(mutex_);
    ++lookups_;
    if (hit) ++hits_;
  }

  void note_claim(std::int64_t t0, std::uint64_t key, ClaimStatus status,
                  Pending& pending) {
    const std::size_t span = tracer_.add("store.claim", t0, now_ns(), parent_, key);
    if (status != ClaimStatus::kAcquired) return;
    std::lock_guard<std::mutex> lock(mutex_);
    pending[key] = Claim{t0, span, thread_number()};
  }

  void finish_task(std::int64_t t0, std::uint64_t key, Pending& pending) {
    const std::int64_t t1 = now_ns();
    const std::size_t append = tracer_.add("store.append", t0, t1, parent_, key);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pending.find(key);
    if (it == pending.end() || it->second.thread != thread_number()) return;
    const std::size_t task =
        tracer_.add("sweep.task", it->second.start, t1, parent_, key);
    tracer_.set_parent(it->second.span, static_cast<std::int64_t>(task));
    tracer_.set_parent(append, static_cast<std::int64_t>(task));
    pending.erase(it);
  }

  sweep::PointStore& inner_;
  Tracer& tracer_;
  std::int64_t parent_;
  mutable std::mutex mutex_;
  Pending pending_points_;
  Pending pending_baselines_;
  mutable std::size_t lookups_ = 0;
  mutable std::size_t hits_ = 0;
};

/// What the benchmark knows about a task key from the sweep's own outputs:
/// whether it is a point, its flow count, and the work it stands for
/// (scheduler events for a packet point, fluid lane steps for a fluid one).
struct TaskInfo {
  bool point = false;
  int flows = 0;
  double work = 0.0;
};
using TaskMap = std::unordered_map<std::uint64_t, TaskInfo>;

/// Map every task key of one finished sweep; `work_of` gives a point's work.
template <typename WorkOf>
void map_tasks(const sweep::SweepSpec& spec, const sweep::SweepResult& result,
               WorkOf&& work_of, TaskMap& tasks) {
  for (const sweep::PointResult& p : result.points) {
    tasks[sweep::point_key(spec, p.point, p.seed)] =
        TaskInfo{true, p.point.flows, work_of(p)};
    tasks[sweep::baseline_key(spec, p.point, p.seed)] =
        TaskInfo{false, p.point.flows, 0.0};
  }
}

/// Per-layer view of traced sweeps: task spans, store calls, and busy
/// blocks (a thread's overlapping task spans merged: one executor call,
/// e.g. a replicate batch or a fluid flows group).
struct SweepSpans {
  double tasks_per_pass = 0.0;  // task spans of one call of each unit
  std::vector<double> task_ms;
  double busy_ns = 0.0;   // sum over threads of the union of task spans
  double sweep_ns = 0.0;  // sum of "sweep.run_sweep" spans
  std::vector<double> sweep_self_ms;
  std::map<int, std::pair<double, double>> by_flows;  // (compute ns, work)
  double compute_ns = 0.0;
  double work = 0.0;
};

SweepSpans reduce_sweeps(const Reduced& red, const TaskMap& tasks) {
  SweepSpans out;
  std::map<std::uint32_t, std::vector<const Span*>> task_spans;
  std::map<std::uint32_t, std::vector<Interval>> store_calls;
  std::map<std::int64_t, std::size_t> tasks_per_call;  // run_sweep span -> tasks
  for (std::size_t i = 0; i < red.spans.size(); ++i) {
    const Span& s = red.spans[i];
    if (same_name(s, "sweep.run_sweep")) {
      out.sweep_ns += static_cast<double>(s.end - s.start);
      out.sweep_self_ms.push_back(static_cast<double>(red.self[i]) / 1e6);
    } else if (same_name(s, "sweep.task")) {
      out.task_ms.push_back(static_cast<double>(s.end - s.start) / 1e6);
      task_spans[s.thread].push_back(&s);
      ++tasks_per_call[s.parent];
    } else if (std::strncmp(s.name, "store.", 6) == 0) {
      store_calls[s.thread].emplace_back(s.start, s.end);
    }
  }
  // Every call of one unit (the run_sweep span's id) has the same tasks.
  std::map<std::uint64_t, std::size_t> tasks_per_unit;
  for (const auto& [call, tasks] : tasks_per_call) {
    tasks_per_unit[red.spans[static_cast<std::size_t>(call)].id] = tasks;
  }
  for (const auto& [unit, tasks] : tasks_per_unit) {
    out.tasks_per_pass += static_cast<double>(tasks);
  }
  for (auto& [thread, spans] : task_spans) {
    std::sort(spans.begin(), spans.end(),
              [](const Span* a, const Span* b) { return a->start < b->start; });
    const std::vector<Interval>& calls = store_calls[thread];
    std::size_t i = 0;
    while (i < spans.size()) {
      std::int64_t lo = spans[i]->start;
      std::int64_t hi = spans[i]->end;
      std::vector<std::uint64_t> keys;
      for (; i < spans.size() && spans[i]->start <= hi; ++i) {
        hi = std::max(hi, spans[i]->end);
        keys.push_back(spans[i]->id);
      }
      out.busy_ns += static_cast<double>(hi - lo);
      std::vector<Interval> inside;
      for (const Interval& c : calls) {
        if (c.second > lo && c.first < hi) {
          inside.emplace_back(std::max(c.first, lo), std::min(c.second, hi));
        }
      }
      const double compute =
          static_cast<double>(hi - lo - union_length(std::move(inside)));
      bool points = true;
      double work = 0.0;
      int flows = 0;
      for (std::uint64_t key : keys) {
        const auto it = tasks.find(key);
        if (it == tasks.end() || !it->second.point) {
          points = false;
          break;
        }
        work += it->second.work;
        flows = it->second.flows;
      }
      if (!points) continue;
      auto& [ns, w] = out.by_flows[flows];
      ns += compute;
      w += work;
      out.compute_ns += compute;
      out.work += work;
    }
  }
  return out;
}

void report_sweep_layer(Report& r, const SweepSpans& s, int threads) {
  r.values["sweep.tasks"] = s.tasks_per_pass;
  r.values["sweep.task_ms_p50"] = median(s.task_ms);
  r.values["sweep.task_ms_p90"] =
      s.task_ms.size() >= 100 ? percentile(s.task_ms, 0.9) : 0.0;
  r.values["sweep.idle_share"] =
      1.0 - ratio(s.busy_ns, static_cast<double>(threads) * s.sweep_ns);
  r.values["sweep.self_ms"] = median(s.sweep_self_ms);
  r.lines.push_back(describe_timing("sweep.task_ms", s.task_ms, 1.0, "ms"));
}

/// Fluid time per lane-step, overall (`ns` over `work` lane-steps) and
/// fitted against flow count, one fluid class per flow: the intercept is
/// the per-step driver cost, the slope the kernel cost per class.
void report_fluid_fit(Report& r,
                      const std::map<int, std::pair<double, double>>& by_flows,
                      double ns, double work) {
  std::vector<double> classes, per_step;
  std::string detail = "fluid ns per lane-step by flow count:";
  for (const auto& [flows, nw] : by_flows) {
    if (nw.second <= 0.0) continue;
    classes.push_back(flows);
    per_step.push_back(nw.first / nw.second);
    detail += format(" %d:%.4g", flows, nw.first / nw.second);
  }
  const Line fit = fit_line(classes, per_step);
  r.values["fluid.ns_per_lane_step"] = ratio(ns, work);
  r.values["fluid.driver_ns_per_step"] = fit.intercept;
  r.values["fluid.kernel_ns_per_class_step"] = fit.slope;
  r.lines.push_back(detail);
}

std::string sweep_csv(const sweep::SweepResult& result) {
  std::ostringstream csv;
  result.write_csv(csv);
  return csv.str();
}

std::string sweep_status(const sweep::SweepResult& result, std::size_t points) {
  if (result.cancelled || result.failures() > 0) {
    for (const sweep::PointResult& p : result.points) {
      if (p.status == sweep::PointStatus::kFailed) {
        return "sweep point " + std::to_string(p.index) + " failed: " + p.error;
      }
    }
    return "sweep cancelled";
  }
  if (result.points.size() != points) {
    return format("sweep produced %zu points, expected %zu",
                  result.points.size(), points);
  }
  return {};
}

std::size_t count_baselines(const std::vector<sweep::PointSpec>& points) {
  std::vector<std::pair<int, int>> pairs;
  for (const sweep::PointSpec& p : points) pairs.emplace_back(p.flows, p.replicate);
  std::sort(pairs.begin(), pairs.end());
  return static_cast<std::size_t>(
      std::unique(pairs.begin(), pairs.end()) - pairs.begin());
}

// ---------------------------------------------------------- paper_sweep

// The axes of the paper's Figs. 6-9, shared by paper_sweep and gamma_search.
constexpr int kPaperFlows[] = {15, 25, 35, 45};
constexpr double kPaperRatesMbps[] = {25.0, 30.0, 35.0, 40.0};
constexpr double kPaperExtentsMs[] = {50.0, 75.0, 100.0};

/// One figure in quick mode: the grid of one R_attack, 7 auto-γ, 5 s + 15 s,
/// two replicates.
sweep::SweepSpec figure_spec(double rattack_mbps) {
  sweep::SweepSpec spec;
  spec.flow_counts.assign(std::begin(kPaperFlows), std::end(kPaperFlows));
  spec.textents.clear();
  for (double extent : kPaperExtentsMs) spec.textents.push_back(ms(extent));
  spec.rattacks = {mbps(rattack_mbps)};
  spec.gamma_points = 7;
  spec.replicates = 2;
  spec.control = control_of(5.0, 15.0);
  return spec;
}

struct FigureGrid {
  std::vector<sweep::SweepSpec> specs;
  std::vector<std::size_t> points;     // per spec
  std::vector<std::size_t> baselines;  // per spec
  double total_points = 0.0;
  double total_runs = 0.0;
};

FigureGrid make_figure_grid() {
  FigureGrid grid;
  for (double rate : kPaperRatesMbps) {
    grid.specs.push_back(figure_spec(rate));
    const std::vector<sweep::PointSpec> points = grid.specs.back().enumerate();
    grid.points.push_back(points.size());
    grid.baselines.push_back(count_baselines(points));
    grid.total_points += static_cast<double>(points.size());
    grid.total_runs += static_cast<double>(points.size() + grid.baselines.back());
  }
  return grid;
}

std::string figure_digest_mismatch(double rate, const std::string& csv) {
  for (const auto& fig : expected::kPaperSweep) {
    if (fig.rattack_mbps == rate) {
      return digest_mismatch(format("paper_sweep R_attack=%g CSV", rate), csv,
                             fig.csv);
    }
  }
  return format("paper_sweep R_attack=%g: no recorded digest (actual %s)",
                rate, hex64(fnv1a64(csv)).c_str());
}

/// Re-runs every kProbeStride-th point of each figure through
/// ScenarioWorkspace::gain, which returns the RunResult run_sweep keeps to
/// itself; the run must reproduce the sweep's gain and event count.
constexpr std::size_t kProbeStride = 6;

Report paper_sweep(const Options& opt) {
  Report r;
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  SeedStream rng(opt.seed);
  const double horizon = figure_spec(25.0).control.horizon();

  // run_sweep builds its thread pool inside every call, so the pool is part
  // of call_p50_s, not of set-up.
  FigureGrid grid;
  const std::vector<double> setups = time_setups([&] {
    grid = make_figure_grid();
    cold_build(ScenarioConfig::ns2_dumbbell(45), std::nullopt, tr);
  });

  std::vector<sweep::SweepResult> last(grid.specs.size());
  auto run_loop = [&](Tracer* tracer_or_null) {
    Loop loop(grid.specs.size());
    run_units(loop_seconds(opt), grid.specs.size(), rng, [&](std::size_t f) {
      MemoryStore memory;
      std::optional<TracingStore> traced;
      sweep::SweepOptions options;
      options.threads = kSweepThreads;
      std::size_t span = 0;
      if (tracer_or_null) {
        span = tracer_or_null->open("sweep.run_sweep", f, -1);
        traced.emplace(memory, *tracer_or_null, static_cast<std::int64_t>(span));
        options.store = &*traced;
      }
      const std::int64_t c0 = now_ns();
      sweep::SweepResult result = sweep::run_sweep(grid.specs[f], options);
      loop.calls.push_back(seconds_between(c0, now_ns()));
      loop.units[f].push_back(loop.calls.back());
      if (tracer_or_null) tracer_or_null->close(span);
      r.checks.operation(
          {sweep_status(result, grid.points[f]),
           figure_digest_mismatch(kPaperRatesMbps[f], sweep_csv(result))});
      last[f] = std::move(result);
    });
    return loop;
  };

  const Loop plain = run_loop(nullptr);
  if (!opt.trace) {
    report_end_to_end(r, setups, plain, grid.total_points,
                      grid.total_runs * horizon,
                      "run_sweep call (one figure grid)", "figure grids");
    return r;
  }
  const Loop traced = run_loop(&tracer);

  // Counter probe, single-threaded in one warm workspace.
  ScenarioWorkspace ws;
  PacketCounters counters;
  for (std::size_t f = 0; f < grid.specs.size(); ++f) {
    const sweep::SweepSpec& spec = grid.specs[f];
    for (std::size_t i = 0; i < last[f].points.size(); i += kProbeStride) {
      const sweep::PointResult& p = last[f].points[i];
      const ScenarioConfig scenario = spec.make_scenario(p.point);
      AttackPlanRequest request;
      request.victim = scenario.victim_profile();
      request.textent = p.point.textent;
      request.rattack = p.point.rattack;
      request.kappa = p.point.kappa;
      request.attack_packet_bytes = scenario.attack_packet_bytes;
      request.victim_min_rto = scenario.tcp.rto_min;
      const AttackPlan plan = plan_attack_at_gamma(request, p.point.gamma);
      const std::size_t span = tracer.open("core.run", p.index, -1);
      const GainMeasurement m = ws.gain(scenario, plan.train, p.point.kappa,
                                        spec.control, p.baseline_goodput);
      tracer.close(span);
      counters.add(m.run);
      r.checks.operation(
          {m.gain == p.measured_gain && m.run.events_executed == p.events
               ? std::string()
               : format("probe of point %zu (R_attack=%g) does not reproduce "
                        "the sweep's gain and events",
                        p.index, kPaperRatesMbps[f])});
    }
  }
  warm_builds(ws, ScenarioConfig::ns2_dumbbell(45), std::nullopt, tracer);

  TaskMap tasks;
  double events = 0.0;
  for (std::size_t f = 0; f < grid.specs.size(); ++f) {
    map_tasks(grid.specs[f], last[f],
              [](const sweep::PointResult& p) {
                return static_cast<double>(p.events);
              },
              tasks);
    for (const sweep::PointResult& p : last[f].points) {
      events += static_cast<double>(p.events);
    }
  }
  const Reduced red(tracer, opt, r);
  const SweepSpans s = reduce_sweeps(red, tasks);
  r.values["sim.events"] = events;
  r.values["sim.ns_per_event"] = ratio(s.compute_ns, s.work);
  counters.report(r, format("probe: every %zuth point of each figure grid",
                            kProbeStride)
                         .c_str());
  report_p50_p90(r, "core.run_ms", red.durations("core.run", 1e6));
  report_builds(r, red);
  report_sweep_layer(r, s, kSweepThreads);
  r.values["store.lookup_us_p50"] = median(red.durations("store.lookup", 1e3));
  r.values["store.claim_us_p50"] = median(red.durations("store.claim", 1e3));
  r.values["store.append_us_p50"] = median(red.durations("store.append", 1e3));
  r.lines.push_back("store: the in-memory store the traced sweep runs with");
  report_overhead(r, plain, traced);
  return r;
}

// --------------------------------------------------------- gamma_search

constexpr double kGammaHi = 0.95;

struct Shape {
  int flows;
  double textent_ms;
  double rattack_mbps;
};

/// Every shape of the paper's axes that search_confirm_gamma accepts. The
/// low end of the γ grid is computed as the sweep's auto-grid computes it,
/// max(0.1, C_Ψ + 0.02); the search needs gamma_lo < gamma_hi <= C_attack.
std::vector<Shape> feasible_shapes() {
  std::vector<Shape> shapes;
  for (int flows : kPaperFlows) {
    const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(flows);
    for (double rate : kPaperRatesMbps) {
      const double c_attack = mbps(rate) / config.bottleneck;
      for (double extent : kPaperExtentsMs) {
        const double cpsi = c_psi(config.victim_profile(), ms(extent), c_attack);
        const double lo = std::max(0.1, cpsi + 0.02);
        if (lo < kGammaHi && kGammaHi <= c_attack) {
          shapes.push_back(Shape{flows, extent, rate});
        }
      }
    }
  }
  return shapes;
}

GammaSearch make_search(const Shape& shape) {
  GammaSearch search;
  search.scenario = ScenarioConfig::ns2_dumbbell(shape.flows);
  search.textent = ms(shape.textent_ms);
  search.rattack = mbps(shape.rattack_mbps);
  search.kappa = 1.0;
  search.control = control_of(5.0, 15.0);
  search.grid_points = 9;
  search.confirm_top = 3;
  search.gamma_hi = kGammaHi;
  return search;
}

/// Exact digest of a search's packet outputs: γ*, its gain, the packet
/// baseline, and every confirmed (γ, packet gain).
std::uint64_t search_digest(const GammaSearchResult& result) {
  std::string text = format("%a %a %a\n", result.gamma_star, result.gain,
                            result.baseline_goodput);
  for (const GammaCandidate& c : result.candidates) {
    if (c.confirmed) text += format("%a %a\n", c.gamma, c.packet_gain);
  }
  return fnv1a64(text);
}

std::string search_mismatch(const Shape& s, const GammaSearchResult& result) {
  const std::uint64_t actual = search_digest(result);
  for (const auto& e : expected::kGammaSearch) {
    if (e.flows == s.flows && e.textent_ms == s.textent_ms &&
        e.rattack_mbps == s.rattack_mbps) {
      if (e.digest == actual) return {};
      break;
    }
  }
  return format("gamma_search {%d, %g, %g, %s}: confirmed gains differ from "
                "the recorded digest",
                s.flows, s.textent_ms, s.rattack_mbps, hex64(actual).c_str());
}

/// Mean |G_fluid - G_packet| over the confirmed candidates of all searches.
double fluid_gap(const std::vector<GammaSearchResult>& results) {
  double sum = 0.0;
  double n = 0.0;
  for (const GammaSearchResult& result : results) {
    for (const GammaCandidate& c : result.candidates) {
      if (!c.confirmed) continue;
      sum += std::abs(c.fluid_gain - c.packet_gain);
      n += 1.0;
    }
  }
  return ratio(sum, n);
}

/// Always-miss FluidGainCache: the search solves every lane exactly as it
/// does with no cache, and the calls timestamp its phases.
class PhaseClock final : public FluidGainCache {
 public:
  std::optional<BitRate> lookup_baseline(const GammaSearch&) override {
    packet_baseline_done = now_ns();
    return std::nullopt;
  }
  void store_baseline(const GammaSearch&, BitRate) override {
    fluid_baseline_done = now_ns();
  }
  std::optional<double> lookup_gain(const GammaSearch&, double) override {
    return std::nullopt;
  }
  void store_gain(const GammaSearch&, double, double) override {
    fluid_grid_done = now_ns();
  }

  std::int64_t packet_baseline_done = 0;
  std::int64_t fluid_baseline_done = 0;
  std::int64_t fluid_grid_done = 0;
};

Report gamma_search(const Options& opt) {
  Report r;
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  SeedStream rng(opt.seed);

  std::vector<Shape> shapes;
  std::vector<GammaSearch> searches;
  const std::vector<double> setups = time_setups([&] {
    shapes = feasible_shapes();
    searches.clear();
    for (const Shape& s : shapes) searches.push_back(make_search(s));
    cold_build(ScenarioConfig::ns2_dumbbell(45), std::nullopt, tr);
  });
  const double horizon = searches.front().control.horizon();

  std::vector<GammaSearchResult> last(searches.size());
  auto run_loop = [&](Tracer* tracer_or_null) {
    CpuSpreader spread;
    Loop loop(searches.size());
    run_units(loop_seconds(opt), searches.size(), rng, [&](std::size_t k) {
      GammaSearch search = searches[k];
      PhaseClock clock;
      std::size_t span = 0;
      if (tracer_or_null) {
        search.fluid_cache = &clock;
        span = tracer_or_null->open("optimizer.search", k, -1);
      }
      const std::int64_t c0 = now_ns();
      GammaSearchResult result = search_confirm_gamma(search);
      const std::int64_t c1 = now_ns();
      loop.calls.push_back(seconds_between(c0, c1));
      loop.units[k].push_back(loop.calls.back());
      if (tracer_or_null) {
        tracer_or_null->close(span);
        const auto parent = static_cast<std::int64_t>(span);
        tracer_or_null->add("optimizer.packet_baseline", c0,
                            clock.packet_baseline_done, parent, k);
        tracer_or_null->add("optimizer.fluid_baseline",
                            clock.packet_baseline_done,
                            clock.fluid_baseline_done, parent, k);
        tracer_or_null->add("optimizer.fluid_grid", clock.fluid_baseline_done,
                            clock.fluid_grid_done, parent, k);
        tracer_or_null->add("optimizer.packet_confirm", clock.fluid_grid_done,
                            c1, parent, k);
      }
      r.checks.operation({search_mismatch(shapes[k], result)});
      last[k] = std::move(result);
    });
    r.checks.operation(
        {gap_violation(fluid_gap(last), fluid::kDegradationMeanTol)});
    return loop;
  };

  const Loop plain = run_loop(nullptr);
  const double gap = fluid_gap(last);
  r.lines.push_back(format("fluid_gap: %.17g (mean |G_fluid - G_packet| over "
                           "confirmed candidates; bound %g)",
                           gap, fluid::kDegradationMeanTol));
  if (!opt.trace) {
    double runs = 0.0;
    for (const GammaSearchResult& result : last) {
      runs += result.packet_runs + result.fluid_runs;
    }
    report_end_to_end(
        r, setups, plain,
        static_cast<double>(searches.size()) * searches.front().grid_points,
        runs * horizon, "search_confirm_gamma call", "searches");
    r.lines.push_back("points_per_s: γ-grid points searched per second");
    return r;
  }
  const Loop traced = run_loop(&tracer);

  // Counter probe: re-run every packet and fluid run of each search through
  // the public run API, which returns the counters the search keeps to
  // itself; each must reproduce the search's own numbers.
  ScenarioWorkspace ws;
  PacketCounters counters;
  std::vector<double> shape_events(searches.size(), 0.0);
  std::vector<double> shape_steps(searches.size(), 0.0);
  double lane_steps = 0.0, loss_events = 0.0, packet_runs = 0.0,
         fluid_runs = 0.0, top1 = 0.0;
  for (std::size_t k = 0; k < searches.size(); ++k) {
    const GammaSearch& search = searches[k];
    const GammaSearchResult& result = last[k];
    packet_runs += result.packet_runs;
    fluid_runs += result.fluid_runs;
    if (result.gamma_star_fluid == result.gamma_star) top1 += 1.0;
    const ScenarioConfig& packet = search.scenario;
    std::vector<std::string> problems;
    std::size_t span = tracer.open("core.run", k, -1);
    const RunResult base = ws.run(packet, std::nullopt, search.control);
    tracer.close(span);
    counters.add(base);
    shape_events[k] += static_cast<double>(base.events_executed);
    if (base.goodput_rate != result.baseline_goodput) {
      problems.push_back("probe baseline differs from the search's");
    }
    ScenarioConfig fluid_cfg = packet;
    fluid_cfg.backend = Backend::kFluid;
    std::vector<std::optional<PulseTrain>> lanes = {std::nullopt};
    for (const GammaCandidate& c : result.candidates) {
      const PulseTrain train = PulseTrain::from_gamma(
          search.textent, search.rattack, c.gamma, packet.bottleneck);
      lanes.emplace_back(train);
      if (!c.confirmed) continue;
      span = tracer.open("core.run", k, -1);
      RunResult run = ws.run(packet, train, search.control);
      tracer.close(span);
      counters.add(run);
      shape_events[k] += static_cast<double>(run.events_executed);
      const double gain = finish_gain(packet, train, search.kappa,
                                      result.baseline_goodput, std::move(run))
                              .gain;
      if (gain != c.packet_gain) {
        problems.push_back("probe packet gain differs from the search's");
      }
    }
    std::vector<RunResult> fluid_runs_k =
        run_fluid_batch(fluid_cfg, lanes, search.control);
    for (std::size_t i = 0; i < fluid_runs_k.size(); ++i) {
      shape_steps[k] += static_cast<double>(fluid_runs_k[i].events_executed);
      loss_events += static_cast<double>(fluid_runs_k[i].total_fast_recoveries);
      if (i == 0) continue;
      const GammaCandidate& c = result.candidates[i - 1];
      const double gain =
          finish_gain(fluid_cfg, *lanes[i], search.kappa,
                      fluid_runs_k[0].goodput_rate, std::move(fluid_runs_k[i]))
              .gain;
      if (gain != c.fluid_gain) {
        problems.push_back("probe fluid gain differs from the search's");
      }
    }
    lane_steps += shape_steps[k];
    for (std::string& p : problems) {
      p = format("gamma_search {%d, %g, %g}: ", shapes[k].flows,
                 shapes[k].textent_ms, shapes[k].rattack_mbps) + p;
    }
    r.checks.operation(problems);
  }
  warm_builds(ws, ScenarioConfig::ns2_dumbbell(45), std::nullopt, tracer);

  const Reduced red(tracer, opt, r);
  std::vector<double> packet_ms, fluid_ms;
  double packet_ns = 0.0, events = 0.0, fluid_ns = 0.0, steps = 0.0;
  std::map<int, std::pair<double, double>> by_flows;
  std::map<std::int64_t, std::pair<double, double>> per_search;  // packet, fluid ns
  for (const Span& s : red.spans) {
    if (s.parent < 0) continue;
    const double ns = static_cast<double>(s.end - s.start);
    if (same_name(s, "optimizer.packet_baseline") ||
        same_name(s, "optimizer.packet_confirm")) {
      per_search[s.parent].first += ns;
      packet_ns += ns;
      if (same_name(s, "optimizer.packet_baseline")) events += shape_events[s.id];
    } else if (same_name(s, "optimizer.fluid_baseline") ||
               same_name(s, "optimizer.fluid_grid")) {
      per_search[s.parent].second += ns;
      fluid_ns += ns;
      if (same_name(s, "optimizer.fluid_grid")) {
        steps += shape_steps[s.id];
        by_flows[shapes[s.id].flows].second += shape_steps[s.id];
      }
      by_flows[shapes[s.id].flows].first += ns;
    }
  }
  for (const auto& [search_span, ns] : per_search) {
    packet_ms.push_back(ns.first / 1e6);
    fluid_ms.push_back(ns.second / 1e6);
  }

  r.values["sim.events"] = counters.events;
  r.values["sim.ns_per_event"] = ratio(packet_ns, events);
  counters.report(r, "probe: every packet run of every search");
  report_p50_p90(r, "core.run_ms", red.durations("core.run", 1e6));
  report_builds(r, red);
  r.values["fluid.lane_steps"] = lane_steps;
  r.values["fluid.loss_events"] = loss_events;
  report_fluid_fit(r, by_flows, fluid_ns, steps);
  r.values["fluid.gap"] = gap;
  r.values["optimizer.packet_runs"] = packet_runs;
  r.values["optimizer.fluid_runs"] = fluid_runs;
  r.values["optimizer.packet_ms"] = median(packet_ms);
  r.values["optimizer.fluid_ms"] = median(fluid_ms);
  r.values["optimizer.self_ms"] = median(red.self_of("optimizer.search", 1e6));
  r.values["optimizer.top1_hit_ratio"] =
      ratio(top1, static_cast<double>(searches.size()));
  r.lines.push_back(format("optimizer: %zu searches; top-1 fluid γ confirmed "
                           "in %.0f of them",
                           searches.size(), top1));
  report_overhead(r, plain, traced);
  return r;
}

// ------------------------------------------------------- fluid_campaign

/// A wide fluid grid, one spec per R_attack of 20-50 Mbps in 5 Mbps steps:
/// 9 T_extent from 20 to 200 ms x 15/25/35/45 flows x 31 auto-γ, 8 s +
/// 40 s, two replicates. The specs share their baselines, which the first
/// one simulates. The fluid tier never reads the seed, so `base_seed`
/// changes the store keys and the CSV's seed column but not the work.
std::vector<sweep::SweepSpec> campaign_specs(std::uint64_t base_seed) {
  std::vector<sweep::SweepSpec> specs;
  for (int rate = 20; rate <= 50; rate += 5) {
    sweep::SweepSpec spec;
    spec.backend = Backend::kFluid;
    spec.flow_counts = {15, 25, 35, 45};
    spec.textents.clear();
    for (int i = 0; i < 9; ++i) spec.textents.push_back(ms(20.0 + 22.5 * i));
    spec.rattacks = {mbps(rate)};
    spec.gamma_points = 31;
    spec.replicates = 2;
    spec.base_seed = base_seed;
    spec.control = control_of(8.0, 40.0);
    specs.push_back(spec);
  }
  return specs;
}

/// All-hit replays per cold pass; each opens the store afresh.
constexpr int kReplaysPerRound = 6;

std::uintmax_t directory_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

Report fluid_campaign(const Options& opt) {
  Report r;
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  SeedStream rng(opt.seed);
  const fs::path root = fs::path(opt.workdir) /
                        format("campaign-%ld", static_cast<long>(getpid()));
  int next_dir = 0;
  auto fresh_dir = [&] {
    const fs::path dir = root / std::to_string(next_dir++);
    fs::remove_all(dir);
    return dir;
  };

  ScenarioConfig build_config = ScenarioConfig::ns2_dumbbell(45);
  build_config.backend = Backend::kFluid;
  std::vector<sweep::SweepSpec> specs;
  std::vector<std::size_t> points;     // per spec
  std::vector<std::size_t> baselines;  // per spec
  std::size_t total_points = 0;
  std::size_t total_tasks = 0;  // points + the baselines the specs share
  const std::vector<double> setups = time_setups([&] {
    specs = campaign_specs(rng.next());
    points.clear();
    baselines.clear();
    std::vector<sweep::PointSpec> all;
    for (const sweep::SweepSpec& spec : specs) {
      const std::vector<sweep::PointSpec> enumerated = spec.enumerate();
      points.push_back(enumerated.size());
      baselines.push_back(count_baselines(enumerated));
      all.insert(all.end(), enumerated.begin(), enumerated.end());
    }
    total_points = all.size();
    total_tasks = all.size() + count_baselines(all);
    sweep::CampaignStore store(fresh_dir().string());
    cold_build(build_config, std::nullopt, tr);
  });
  fs::remove_all(root);
  const double horizon = specs.front().control.horizon();

  std::vector<sweep::SweepResult> cold(specs.size());
  double store_bytes = 0.0;
  std::size_t replay_lookups = 0, replay_hits = 0;
  auto run_loop = [&](Tracer* tracer_or_null) {
    CpuSpreader spread;
    Loop loop(specs.size());
    repeat_for(loop_seconds(opt), [&] {
      const fs::path dir = fresh_dir();
      std::vector<std::string> cold_csv;
      {
        sweep::CampaignStore store(dir.string());
        std::size_t simulated = 0;
        for (std::size_t u = 0; u < specs.size(); ++u) {
          std::optional<TracingStore> traced;
          sweep::SweepOptions options;
          options.threads = 1;
          options.store = &store;
          std::size_t span = 0;
          if (tracer_or_null) {
            span = tracer_or_null->open("sweep.run_sweep", u, -1);
            traced.emplace(store, *tracer_or_null,
                           static_cast<std::int64_t>(span));
            options.store = &*traced;
          }
          const std::int64_t c0 = now_ns();
          cold[u] = sweep::run_sweep(specs[u], options);
          loop.units[u].push_back(seconds_between(c0, now_ns()));
          if (tracer_or_null) tracer_or_null->close(span);
          r.checks.operation({sweep_status(cold[u], points[u])});
          simulated += cold[u].simulated;
          cold_csv.push_back(sweep_csv(cold[u]));
        }
        r.checks.operation(
            {simulated == total_tasks
                 ? std::string()
                 : format("cold pass simulated %zu tasks, expected %zu",
                          simulated, total_tasks)});
      }
      store_bytes = static_cast<double>(directory_bytes(dir));
      for (int i = 0; i < kReplaysPerRound; ++i) {
        const std::int64_t c0 = now_ns();
        std::vector<sweep::SweepResult> replay(specs.size());
        {
          std::size_t span = 0;
          if (tracer_or_null) span = tracer_or_null->open("sweep.replay", 0, -1);
          const std::int64_t o0 = now_ns();
          sweep::CampaignStore store(dir.string());
          if (tracer_or_null) {
            tracer_or_null->add("store.open", o0, now_ns(),
                                static_cast<std::int64_t>(span), 0);
          }
          std::optional<TracingStore> traced;
          sweep::SweepOptions options;
          options.threads = 1;
          options.store = &store;
          if (tracer_or_null) {
            traced.emplace(store, *tracer_or_null, static_cast<std::int64_t>(span));
            options.store = &*traced;
          }
          for (std::size_t u = 0; u < specs.size(); ++u) {
            replay[u] = sweep::run_sweep(specs[u], options);
          }
          if (traced) {
            replay_lookups += traced->lookups();
            replay_hits += traced->hits();
          }
          if (tracer_or_null) tracer_or_null->close(span);
        }
        loop.calls.push_back(seconds_between(c0, now_ns()));
        std::vector<std::string> problems;
        for (std::size_t u = 0; u < specs.size(); ++u) {
          const std::size_t tasks = points[u] + baselines[u];
          problems.push_back(sweep_status(replay[u], points[u]));
          problems.push_back(
              replay[u].cache_hits == tasks
                  ? std::string()
                  : format("replay hit %zu of %zu tasks", replay[u].cache_hits,
                           tasks));
          problems.push_back(replay_mismatch(cold_csv[u], sweep_csv(replay[u])));
        }
        r.checks.operation(problems);
      }
      fs::remove_all(dir);
    });
    return loop;
  };

  const Loop plain = run_loop(nullptr);
  if (!opt.trace) {
    fs::remove_all(root);
    report_end_to_end(r, setups, plain, static_cast<double>(total_points),
                      static_cast<double>(total_tasks) * horizon,
                      "all-hit replay incl. store open (resume_s)",
                      "cold-pass run_sweep calls, one per R_attack");
    return r;
  }
  const Loop traced = run_loop(&tracer);
  {
    auto ws = cold_build(build_config, std::nullopt, nullptr);
    warm_builds(*ws, build_config, std::nullopt, tracer);
  }
  fs::remove_all(root);

  // Replicates share a plan (the fluid tier is seed-invariant), so a plan's
  // lane steps are counted once, on replicate 0.
  TaskMap tasks;
  double lane_steps = 0.0, loss_events = 0.0;
  for (std::size_t u = 0; u < specs.size(); ++u) {
    map_tasks(specs[u], cold[u],
              [](const sweep::PointResult& p) {
                return p.point.replicate == 0 ? static_cast<double>(p.events)
                                              : 0.0;
              },
              tasks);
    for (const sweep::PointResult& p : cold[u].points) {
      if (p.point.replicate != 0) continue;
      lane_steps += static_cast<double>(p.events);
      loss_events += static_cast<double>(p.fast_recoveries);
    }
  }
  const Reduced red(tracer, opt, r);
  const SweepSpans s = reduce_sweeps(red, tasks);
  r.values["fluid.lane_steps"] = lane_steps;
  r.values["fluid.loss_events"] = loss_events;
  report_fluid_fit(r, s.by_flows, s.compute_ns, s.work);
  report_builds(r, red);
  report_sweep_layer(r, s, 1);

  std::vector<double> replay_lookup_us;
  for (const Span& span : red.spans) {
    if (same_name(span, "store.lookup") && span.parent >= 0 &&
        same_name(red.spans[static_cast<std::size_t>(span.parent)],
                  "sweep.replay")) {
      replay_lookup_us.push_back(static_cast<double>(span.end - span.start) /
                                 1e3);
    }
  }
  r.values["store.open_ms"] = median(red.durations("store.open", 1e6));
  r.values["store.lookup_us_p50"] = median(replay_lookup_us);
  r.values["store.hit_ratio"] = ratio(static_cast<double>(replay_hits),
                                      static_cast<double>(replay_lookups));
  r.values["store.bytes"] = store_bytes;
  r.values["store.append_us_p50"] = median(red.durations("store.append", 1e3));
  r.values["store.claim_us_p50"] = median(red.durations("store.claim", 1e3));
  r.lines.push_back(format("store: %zu replay lookups, %zu hits",
                           replay_lookups, replay_hits));
  report_overhead(r, plain, traced);
  return r;
}

// --------------------------------------------------------- gigabit_fast

/// large_scale(1000, 1 Gbps) with the fast path on, under a γ = 0.3 pulse
/// train scaled to the bottleneck, 1 s + 4 s per run, one warm workspace.
constexpr std::uint64_t kGigabitSeeds[] = {1, 2, 3, 4};

ScenarioConfig gigabit_config(std::uint64_t seed) {
  ScenarioConfig config = ScenarioConfig::large_scale(1000, gbps(1));
  config.seed = seed;
  return config;
}

PulseTrain gigabit_train() {
  return PulseTrain::from_gamma(ms(50), gbps(1) * (25.0 / 15.0), 0.3, gbps(1));
}

std::string gigabit_mismatch(std::uint64_t seed, const RunResult& run) {
  const expected::GigabitCounters actual{
      seed,
      run.events_executed,
      run.bottleneck_queue.enqueued + run.bottleneck_queue.dropped,
      run.bottleneck_queue.dropped,
      run.red_early_drops,
      run.red_forced_drops,
      run.total_timeouts,
      run.total_fast_recoveries,
      run.total_retransmits,
      run.attack_packets_sent,
      static_cast<std::uint64_t>(run.goodput_bytes)};
  for (const auto& e : expected::kGigabitFast) {
    if (e.seed != seed) continue;
    if (std::memcmp(&e, &actual, sizeof(actual)) == 0) return {};
    break;
  }
  return format("gigabit_fast seed %llu counters differ from the recorded "
                "ones: {%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                "%llu, %llu}",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(actual.seed),
                static_cast<unsigned long long>(actual.events),
                static_cast<unsigned long long>(actual.pkts),
                static_cast<unsigned long long>(actual.drops),
                static_cast<unsigned long long>(actual.red_early),
                static_cast<unsigned long long>(actual.red_forced),
                static_cast<unsigned long long>(actual.timeouts),
                static_cast<unsigned long long>(actual.fast_recoveries),
                static_cast<unsigned long long>(actual.retransmits),
                static_cast<unsigned long long>(actual.attack_pkts),
                static_cast<unsigned long long>(actual.goodput_bytes));
}

Report gigabit_fast(const Options& opt) {
  Report r;
  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  SeedStream rng(opt.seed);
  const PulseTrain train = gigabit_train();
  const RunControl control = control_of(1.0, 4.0);
  constexpr std::size_t kSeeds = std::size(kGigabitSeeds);

  std::unique_ptr<ScenarioWorkspace> ws;
  const std::vector<double> setups = time_setups([&] {
    ws.reset();
    ws = cold_build(gigabit_config(kGigabitSeeds[0]), train, tr);
  });

  std::vector<RunResult> last(kSeeds);
  auto run_loop = [&](Tracer* tracer_or_null) {
    CpuSpreader spread;
    Loop loop(kSeeds);
    run_units(loop_seconds(opt), kSeeds, rng, [&](std::size_t k) {
      std::size_t span = 0;
      if (tracer_or_null) span = tracer_or_null->open("core.run", k, -1);
      const std::int64_t c0 = now_ns();
      RunResult run = ws->run(gigabit_config(kGigabitSeeds[k]), train, control);
      loop.calls.push_back(seconds_between(c0, now_ns()));
      loop.units[k].push_back(loop.calls.back());
      if (tracer_or_null) tracer_or_null->close(span);
      r.checks.operation({gigabit_mismatch(kGigabitSeeds[k], run)});
      last[k] = std::move(run);
    });
    return loop;
  };

  const Loop plain = run_loop(nullptr);
  if (!opt.trace) {
    report_end_to_end(r, setups, plain, static_cast<double>(kSeeds),
                      static_cast<double>(kSeeds) * control.horizon(),
                      "ScenarioWorkspace::run call", "runs, one per scenario seed");
    r.lines.push_back("points_per_s: runs per second");
    return r;
  }
  const Loop traced = run_loop(&tracer);
  warm_builds(*ws, gigabit_config(kGigabitSeeds[0]), train, tracer);

  PacketCounters counters;
  for (const RunResult& run : last) counters.add(run);
  const Reduced red(tracer, opt, r);
  double run_ns = 0.0, events = 0.0;
  for (const Span& s : red.spans) {
    if (!same_name(s, "core.run")) continue;
    run_ns += static_cast<double>(s.end - s.start);
    events += static_cast<double>(last[s.id].events_executed);
  }
  r.values["sim.events"] = counters.events;
  r.values["sim.ns_per_event"] = ratio(run_ns, events);
  counters.report(r, "one run per scenario seed");
  report_p50_p90(r, "core.run_ms", red.durations("core.run", 1e6));
  report_builds(r, red);
  report_overhead(r, plain, traced);
  return r;
}

// ------------------------------------------------------------- dispatch

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"paper_sweep", paper_sweep},
    {"gamma_search", gamma_search},
    {"fluid_campaign", fluid_campaign},
    {"gigabit_fast", gigabit_fast},
};

/// Compare the exact per-layer counts with the recorded ones.
void report_exact(Report& r, const std::string& workload) {
  for (const auto& e : expected::kExactCounts) {
    if (workload != e.workload) continue;
    const double actual = r.values[e.metric];
    r.lines.push_back(
        actual == e.value
            ? format("exact %s = %.17g, as recorded", e.metric, actual)
            : format("exact %s = %.17g, CHANGED from the recorded %.17g",
                     e.metric, actual, e.value));
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload& w : kWorkloads) out.emplace_back(w.name);
    return out;
  }();
  return names;
}

Report run_workload(const Options& options) {
  for (const Workload& w : kWorkloads) {
    if (options.workload != w.name) continue;
    if (!options.workdir.empty()) fs::create_directories(options.workdir);
    Report report = w.run(options);
    if (!options.trace) return report;
    for (const MetricDef& m : kPerLayer) report.values.try_emplace(m.name, 0.0);
    report_exact(report, options.workload);
    return report;
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
