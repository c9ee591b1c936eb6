#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/planner.hpp"
#include "sweep/parallel_for.hpp"
#include "sweep/point_cache.hpp"
#include "sweep/spec.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pdos::sweep {
namespace {

/// A spec small enough for unit tests: 3 flows, short windows, 2 gammas.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.flow_counts = {3};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.3, 0.6};
  spec.replicates = 2;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.5);
  return spec;
}

TEST(SeedDerivation, StableAndDistinct) {
  const std::uint64_t a = replicate_seed(1, 0);
  EXPECT_EQ(a, replicate_seed(1, 0));  // deterministic
  std::set<std::uint64_t> seeds;
  for (int rep = 0; rep < 100; ++rep) seeds.insert(replicate_seed(1, rep));
  EXPECT_EQ(seeds.size(), 100u);  // no collisions across replicates
  EXPECT_NE(replicate_seed(1, 0), replicate_seed(2, 0));  // base matters
}

TEST(DeriveSeed, AsymmetricAndMixing) {
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(0, 0), 0u);
}

TEST(SweepSpec, EnumerationIsStable) {
  const SweepSpec spec = tiny_spec();
  const auto a = spec.enumerate();
  const auto b = spec.enumerate();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 4u);  // 2 gammas x 2 replicates
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].gamma, b[i].gamma);
    EXPECT_EQ(a[i].replicate, b[i].replicate);
  }
}

TEST(SweepSpec, AutoGammaGridRespectsFeasibility) {
  SweepSpec spec = tiny_spec();
  spec.gammas.clear();  // auto grid
  spec.gamma_points = 9;
  spec.replicates = 1;
  const auto points = spec.enumerate();
  ASSERT_FALSE(points.empty());
  const double c_attack = mbps(25) / mbps(15);
  for (const auto& point : points) {
    EXPECT_GT(point.gamma, 0.0);
    EXPECT_LT(point.gamma, 1.0);
    EXPECT_LE(point.gamma, c_attack);
  }
}

TEST(SweepSpec, ExplicitPointsPassThrough) {
  SweepSpec spec;
  PointSpec point;
  point.flows = 5;
  point.gamma = 0.42;
  spec.explicit_points = {point};
  spec.replicates = 3;
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 3u);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(points[static_cast<std::size_t>(rep)].replicate, rep);
    EXPECT_EQ(points[static_cast<std::size_t>(rep)].gamma, 0.42);
  }
}

// The acceptance-criterion test: the same spec at 1 thread and at 8
// threads must produce byte-identical CSV output.
TEST(RunSweep, OutputIsByteIdenticalAcrossThreadCounts) {
  const SweepSpec spec = tiny_spec();

  SweepOptions serial;
  serial.threads = 1;
  const SweepResult a = run_sweep(spec, serial);

  SweepOptions parallel;
  parallel.threads = 8;
  const SweepResult b = run_sweep(spec, parallel);

  EXPECT_EQ(a.threads, 1);
  EXPECT_EQ(b.threads, 8);
  EXPECT_EQ(a.failures(), 0u);
  EXPECT_EQ(b.failures(), 0u);

  std::ostringstream csv_a, csv_b;
  a.write_csv(csv_a);
  b.write_csv(csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
}

TEST(RunSweep, ReplicatesDiffer) {
  SweepSpec spec = tiny_spec();
  spec.gammas = {0.6};
  const SweepResult result = run_sweep(spec, {});
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_NE(result.points[0].seed, result.points[1].seed);
  // Different seeds, different stochastic environment, different goodput.
  EXPECT_NE(result.points[0].goodput, result.points[1].goodput);
}

TEST(RunSweep, CancellationPropagates) {
  SweepSpec spec;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.0);
  // Point 0 is infeasible (gamma > C_attack forces T_space < 0, the planner
  // throws); the rest are fine. With one thread the failure lands before
  // any later point is dispatched, so everything after it must be skipped.
  PointSpec bad;
  bad.flows = 3;
  bad.gamma = 5.0;
  PointSpec good;
  good.flows = 3;
  good.gamma = 0.5;
  spec.explicit_points = {bad, good, good, good};

  SweepOptions options;
  options.threads = 1;
  const SweepResult result = run_sweep(spec, options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.failures(), 1u);
  EXPECT_EQ(result.points[0].status, PointStatus::kFailed);
  EXPECT_FALSE(result.points[0].error.empty());
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_EQ(result.points[i].status, PointStatus::kSkipped);
  }
}

TEST(RunSweep, KeepGoingRunsPastFailures) {
  // On the fluid tier both points share one flows group and one batched
  // solve; the infeasible point must still fail alone.
  for (const Backend backend : {Backend::kFull, Backend::kFluid}) {
    SCOPED_TRACE(backend_name(backend));
    SweepSpec spec;
    spec.backend = backend;
    spec.control.warmup = sec(0.5);
    spec.control.measure = sec(1.0);
    PointSpec bad;
    bad.flows = 3;
    bad.gamma = 5.0;
    PointSpec good;
    good.flows = 3;
    good.gamma = 0.5;
    spec.explicit_points = {bad, good};

    SweepOptions options;
    options.threads = 2;
    options.cancel_on_failure = false;
    const SweepResult result = run_sweep(spec, options);
    EXPECT_FALSE(result.cancelled);
    EXPECT_EQ(result.failures(), 1u);
    EXPECT_EQ(result.completed(), 1u);
    EXPECT_EQ(result.points[1].status, PointStatus::kOk);
  }
}

TEST(RunSweep, RowsOfOnePairShareOneBaselineWhereverTheyAre) {
  // Rows of one (flows, replicate) pair need not be adjacent: explicit
  // points of flows 5, 3, 5 put two other rows between each pair's rows.
  SweepSpec spec;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.0);
  spec.replicates = 2;
  PointSpec point;
  point.flows = 5;
  point.gamma = 0.3;
  PointSpec other = point;
  other.flows = 3;
  PointSpec again = point;
  again.gamma = 0.6;
  spec.explicit_points = {point, other, again};

  const SweepTasks tasks = make_tasks(spec);
  ASSERT_EQ(tasks.rows.size(), 6u);
  EXPECT_EQ(tasks.baselines, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(tasks.baseline_of,
            (std::vector<std::size_t>{0, 1, 2, 3, 0, 1}));
  EXPECT_EQ(tasks.size(), 10u);

  SweepProgress last;
  SweepOptions options;
  options.threads = 2;
  options.on_progress = [&](const SweepProgress& progress) {
    last = progress;
  };
  const SweepResult result = run_sweep(spec, options);
  ASSERT_EQ(result.completed(), 6u);
  EXPECT_EQ(last.total, 10u);  // 4 distinct pairs + 6 rows
  EXPECT_EQ(last.done, last.total);
  EXPECT_EQ(result.simulated, 10u);
  for (std::size_t i : {0u, 1u}) {
    EXPECT_EQ(result.points[i].baseline_goodput,
              result.points[i + 4].baseline_goodput);
    EXPECT_NE(result.points[i].baseline_goodput,
              result.points[i + 2].baseline_goodput);
  }
}

TEST(RunSweep, FailedBaselineFailsTheRowsItNormalizes) {
  // A measure window too short to deliver a packet: the one baseline's
  // goodput is zero, and its rows fail with its error in both modes.
  SweepSpec spec = parse_spec(
                       "flows = 3\ngamma = 0.4, 0.6\nwarmup_s = 0\n"
                       "measure_s = 0.001\n")
                       .spec;
  for (const bool cancel : {true, false}) {
    SCOPED_TRACE(cancel ? "cancel on failure" : "keep going");
    SweepOptions options;
    options.cancel_on_failure = cancel;
    const SweepResult result = run_sweep(spec, options);
    ASSERT_EQ(result.points.size(), 2u);
    EXPECT_EQ(result.failures(), 2u);
    EXPECT_EQ(result.cancelled, cancel);
    for (const PointResult& row : result.points) {
      EXPECT_EQ(row.status, PointStatus::kFailed);
      EXPECT_EQ(row.error, "baseline failed: baseline goodput is zero");
    }
  }
  // A baseline the cancelled sweep skipped fails nothing: its rows stay
  // skipped. On one thread flows 3's baseline fails before flows 5's runs.
  spec.flow_counts = {3, 5};
  SweepOptions options;
  options.threads = 1;
  const SweepResult result = run_sweep(spec, options);
  ASSERT_EQ(result.points.size(), 4u);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.failures(), 2u);
  for (std::size_t i : {2u, 3u}) {
    EXPECT_EQ(result.points[i].status, PointStatus::kSkipped);
    EXPECT_TRUE(result.points[i].error.empty());
  }
}

TEST(RunSweep, ProgressReachesTotal) {
  SweepSpec spec = tiny_spec();
  spec.gammas = {0.5};
  spec.replicates = 1;
  std::atomic<std::size_t> last_done{0};
  std::atomic<std::size_t> total{0};
  SweepOptions options;
  options.threads = 2;
  options.on_progress = [&](const SweepProgress& progress) {
    EXPECT_GT(progress.done, last_done.load());  // serialized + monotonic
    last_done.store(progress.done);
    total.store(progress.total);
  };
  const SweepResult result = run_sweep(spec, options);
  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(last_done.load(), total.load());
  EXPECT_EQ(total.load(), 2u);  // 1 baseline + 1 point
}

/// A store that misses every lookup and fails every claim.
class ClaimFailingStore : public PointStore {
 public:
  bool lookup_point(std::uint64_t, CachedPoint&) const override {
    return false;
  }
  bool lookup_baseline(std::uint64_t, double&) const override { return false; }
  void store_point(std::uint64_t, const CachedPoint&) override {}
  void store_baseline(std::uint64_t, double) override {}
  std::size_t size() const override { return 0; }
  ClaimStatus claim_point(std::uint64_t) override {
    throw std::runtime_error("claim failed");
  }
  ClaimStatus claim_baseline(std::uint64_t) override {
    throw std::runtime_error("claim failed");
  }
};

TEST(RunSweep, FailedBaselineClaimIsNotCountedAsCached) {
  SweepSpec spec = tiny_spec();
  ASSERT_EQ(spec.replicates, 2);
  ClaimFailingStore store;
  SweepProgress last;
  SweepOptions options;
  options.threads = 2;
  options.store = &store;
  options.on_progress = [&](const SweepProgress& progress) {
    last = progress;  // serialized and monotonic
  };
  const SweepResult result = run_sweep(spec, options);
  EXPECT_EQ(result.completed(), 0u);
  EXPECT_EQ(last.done, last.total);
  EXPECT_EQ(last.cached, result.cache_hits);
  EXPECT_EQ(result.cache_hits, 0u);
}

TEST(RunSweep, ThrowingStoreFailsEveryRowWithoutEscaping) {
  // A store call that throws fails its own task, on every tier: the sweep
  // returns, each row records the error, and the meter still reaches total.
  for (const Backend backend : {Backend::kFast, Backend::kFluid}) {
    SCOPED_TRACE(backend_name(backend));
    SweepSpec spec = tiny_spec();
    spec.backend = backend;
    ClaimFailingStore store;
    SweepProgress last;
    SweepOptions options;
    options.threads = 2;
    options.cancel_on_failure = false;
    options.store = &store;
    options.on_progress = [&](const SweepProgress& progress) {
      last = progress;
    };
    const SweepResult result = run_sweep(spec, options);
    ASSERT_EQ(result.points.size(), 4u);
    for (const PointResult& row : result.points) {
      EXPECT_EQ(row.status, PointStatus::kFailed);
      EXPECT_FALSE(row.error.empty());
    }
    EXPECT_EQ(last.total, 6u);  // 2 baselines + 4 points
    EXPECT_EQ(last.done, last.total);
    EXPECT_EQ(result.cache_hits, 0u);
  }
}

TEST(RunSweep, CacheHitsAreWeightedNearZeroInEta) {
  // The ETA (DESIGN.md §6) extrapolates wall cost from the SIMULATED
  // tasks only. An all-hit --resume replay must report eta 0 and
  // cached == done at every snapshot, instead of pricing microsecond cache
  // replays at full simulation cost.
  char name[] = "/tmp/pdos_sweep_eta_test_XXXXXX";
  const int fd = mkstemp(name);
  ASSERT_GE(fd, 0);
  close(fd);
  std::remove(name);
  const std::string cache_path = name;

  SweepSpec spec = tiny_spec();
  SweepOptions options;
  options.threads = 1;
  // Each run opens the cache file afresh, as a resumed pdos_sweep does.
  const auto run_cached = [&] {
    PointCache cache(cache_path);
    options.store = &cache;
    return run_sweep(spec, options);
  };

  // First pass simulates everything: no snapshot reports a cache hit.
  std::size_t snapshots = 0;
  options.on_progress = [&](const SweepProgress& progress) {
    EXPECT_EQ(progress.cached, 0u);
    ++snapshots;
  };
  const SweepResult first = run_cached();
  ASSERT_EQ(first.failures(), 0u);
  EXPECT_GT(snapshots, 0u);

  // Resume: every task replays from the cache, so the simulated-task count
  // stays zero and the hit-weighted ETA must stay exactly 0.
  options.on_progress = [](const SweepProgress& progress) {
    EXPECT_EQ(progress.cached, progress.done);
    EXPECT_EQ(progress.eta_seconds, 0.0);
  };
  const SweepResult resumed = run_cached();
  EXPECT_EQ(resumed.failures(), 0u);
  EXPECT_EQ(resumed.cache_hits, resumed.points.size() + 2u);  // + baselines

  std::remove(cache_path.c_str());
}

TEST(RunSweep, MeasurementsAreSane) {
  SweepSpec spec = tiny_spec();
  spec.gammas = {0.6};
  spec.replicates = 1;
  const SweepResult result = run_sweep(spec, {});
  ASSERT_EQ(result.points.size(), 1u);
  const PointResult& point = result.points[0];
  ASSERT_EQ(point.status, PointStatus::kOk);
  EXPECT_GT(point.baseline_goodput, 0.0);
  EXPECT_GT(point.goodput, 0.0);
  EXPECT_LT(point.goodput, point.baseline_goodput);  // the attack hurts
  EXPECT_GE(point.measured_degradation, 0.0);
  EXPECT_GT(point.attack_packets, 0u);
  EXPECT_GT(point.c_psi, 0.0);
}

TEST(SpecParser, ParsesTheFullGrammar) {
  const SpecFile file = parse_spec(R"(
# a comment
scenario     = ns2
queue        = droptail
backend      = fluid
flows        = 3, 5
textent_ms   = 50, 75
rattack_mbps = 25
gamma        = 0.3, 0.6
kappa        = 2.0
replicates   = 2
base_seed    = 7
warmup_s     = 1
measure_s    = 2
threads      = 4
csv          = out.csv
cache        = points.cache
store        = campaign.d
)");
  EXPECT_EQ(file.spec.scenario, ScenarioKind::kNs2Dumbbell);
  EXPECT_EQ(file.spec.queue, QueueKind::kDropTail);
  EXPECT_EQ(file.spec.backend, Backend::kFluid);
  EXPECT_EQ(file.spec.flow_counts, (std::vector<int>{3, 5}));
  ASSERT_EQ(file.spec.textents.size(), 2u);
  EXPECT_DOUBLE_EQ(file.spec.textents[1], ms(75));
  EXPECT_DOUBLE_EQ(file.spec.kappa, 2.0);
  EXPECT_EQ(file.spec.replicates, 2);
  EXPECT_EQ(file.spec.base_seed, 7u);
  EXPECT_DOUBLE_EQ(file.spec.control.measure, sec(2));
  EXPECT_EQ(file.options.threads, 4);
  EXPECT_EQ(file.csv_path, "out.csv");
  EXPECT_EQ(file.cache_path, "points.cache");
  EXPECT_EQ(file.store_dir, "campaign.d");
}

TEST(SpecParser, AutoGammaAndDefaults) {
  const SpecFile file = parse_spec("gamma = auto\n");
  EXPECT_TRUE(file.spec.gammas.empty());
  EXPECT_EQ(file.options.threads, 0);
}

TEST(SpecParser, RejectsUnknownKeysAndGarbage) {
  EXPECT_THROW(parse_spec("no_such_key = 1\n"), ParameterError);
  EXPECT_THROW(parse_spec("flows\n"), ParameterError);
  EXPECT_THROW(parse_spec("flows = abc\n"), ParameterError);
  EXPECT_THROW(parse_spec("scenario = ns3\n"), ParameterError);
  EXPECT_THROW(parse_spec("backend = warp\n"), ParameterError);
  // Former execution-strategy knobs are unknown keys too.
  EXPECT_THROW(parse_spec("shards = 2\n"), ParameterError);
  EXPECT_THROW(parse_spec("batch_replicates = on\n"), ParameterError);
  // So is the deleted hybrid tier, by name and by its tuning key.
  EXPECT_THROW(parse_spec("backend = hybrid\n"), ParameterError);
  EXPECT_THROW(parse_spec("hybrid_foreground = 4\n"), ParameterError);
  // Non-finite numbers never reach an axis.
  EXPECT_THROW(parse_spec("gamma = nan\n"), ParameterError);
  EXPECT_THROW(parse_spec("textent_ms = nan\n"), ParameterError);
  EXPECT_THROW(parse_spec("rattack_mbps = inf\n"), ParameterError);
  EXPECT_THROW(parse_spec("kappa = nan\n"), ParameterError);
  EXPECT_THROW(parse_spec("warmup_s = nan\n"), ParameterError);
  // Integer keys take whole numbers in range: no truncation, no
  // out-of-range float-to-integer cast.
  EXPECT_THROW(parse_spec("replicates = 1e12\n"), ParameterError);
  EXPECT_THROW(parse_spec("base_seed = -1\n"), ParameterError);
  EXPECT_THROW(parse_spec("replicates = 2.7\n"), ParameterError);
  EXPECT_THROW(parse_spec("flows = 15.9\n"), ParameterError);
  // Values every point of the grid would fail on.
  EXPECT_THROW(parse_spec("kappa = -1\n"), ParameterError);
  EXPECT_THROW(parse_spec("textent_ms = -50\n"), ParameterError);
  EXPECT_THROW(parse_spec("textent_ms = 50, 0\n"), ParameterError);
  EXPECT_THROW(parse_spec("rattack_mbps = 0\n"), ParameterError);
  EXPECT_THROW(parse_spec("warmup_s = -1\n"), ParameterError);
  // The retired JSON output is an unknown key.
  EXPECT_THROW(parse_spec("json = out.json\n"), ParameterError);
}

// The same readers check the CLIs' numeric flags (pdos_sweep --threads;
// pdos_campaign --workers, --threads, --lease-ttl; scenario_runner's
// numbers): the whole value, finite, in range, and the message names the
// flag.
TEST(SpecParser, NumberReadersRejectBadFlagValues) {
  for (const char* bad : {"", "abc", "2x", "nan", "inf", "1e400"}) {
    EXPECT_THROW(parse_double(bad, "--lease-ttl"), ParameterError) << bad;
    EXPECT_THROW(parse_integer<int>(bad, "--workers"), ParameterError) << bad;
    EXPECT_THROW(parse_integer<std::uint64_t>(bad, "--x"), ParameterError)
        << bad;
  }
  EXPECT_THROW(parse_integer<int>("2.5", "--threads"), ParameterError);
  EXPECT_THROW(parse_integer<int>("4294967296", "--threads"), ParameterError);
  EXPECT_THROW(parse_integer<std::uint64_t>("-1", "--x"), ParameterError);
  try {
    parse_double("0.3s", "--lease-ttl");
    ADD_FAILURE() << "trailing junk accepted";
  } catch (const ParameterError& e) {
    EXPECT_EQ(std::string(e.what()),
              "--lease-ttl: not a number: '0.3s'");
  }
  EXPECT_EQ(parse_integer<int>("-1", "--threads"), -1);
  EXPECT_EQ(parse_integer<std::uint64_t>("18446744073709551615", "--x"),
            18446744073709551615ull);
  EXPECT_EQ(parse_double("0.05", "--lease-ttl"), 0.05);
  EXPECT_EQ(parse_double("1e-3", "--lease-ttl"), 1e-3);
}

// One bound for every thread and worker count a user supplies: a typo such
// as `threads = 40000` fails while parsing, before any thread starts.
TEST(SpecParser, RejectsThreadCountsAboveTheBound) {
  EXPECT_EQ(parse_spec("threads = 1024\n").options.threads, kMaxWorkers);
  try {
    parse_spec("gamma = auto\nthreads = 1025\n");
    ADD_FAILURE() << "threads = 1025 accepted";
  } catch (const ParameterError& e) {
    EXPECT_EQ(std::string(e.what()),
              "spec line 2: threads: must be at most 1024, got 1025");
  }
  // The CLIs' --threads and --workers go through the same check.
  EXPECT_NO_THROW(check_worker_count(kMaxWorkers, "--workers"));
  EXPECT_THROW(check_worker_count(kMaxWorkers + 1, "--workers"),
               ParameterError);
}

TEST(RunSweep, RejectsThreadCountsAboveTheBound) {
  SweepSpec spec = tiny_spec();
  spec.gammas = {0.3};
  spec.replicates = 1;
  SweepOptions options;
  options.threads = kMaxWorkers + 1;
  EXPECT_THROW(run_sweep(spec, options), ParameterError);
}

TEST(RunSweep, FluidBackendProducesComparableDegradation) {
  SweepSpec spec;
  spec.flow_counts = {15};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.5};
  spec.control.warmup = sec(5);
  spec.control.measure = sec(10);

  SweepOptions options;
  options.threads = 1;
  const SweepResult packet = run_sweep(spec, options);
  spec.backend = Backend::kFluid;
  const SweepResult fluid = run_sweep(spec, options);
  ASSERT_EQ(packet.failures(), 0u);
  ASSERT_EQ(fluid.failures(), 0u);
  ASSERT_EQ(packet.points.size(), 1u);
  ASSERT_EQ(fluid.points.size(), 1u);
  EXPECT_GT(fluid.points[0].baseline_goodput, 0.0);
  EXPECT_NEAR(fluid.points[0].measured_degradation,
              packet.points[0].measured_degradation, 0.25);
}

TEST(RunSweep, FluidBatchedPointsMatchDirectMeasurement) {
  // The fluid tier's phase-2 path groups a flows block's points, dedupes
  // replicates (fluid is seed-invariant), and solves the unique plans as
  // lanes of batched fluid evaluations (DESIGN.md §16). Every recorded
  // point must still be bit-identical to a direct single-point
  // measure_gain on the same scenario — across a grid wide enough to
  // force multiple batches and a ragged tail (2 textents × 5 gammas = 10
  // unique plans at width 8), plus replicates that must fan out.
  SweepSpec spec;
  spec.flow_counts = {9};
  spec.textents = {ms(50), ms(80)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.2, 0.35, 0.5, 0.65, 0.8};
  spec.replicates = 2;
  spec.backend = Backend::kFluid;
  spec.control.warmup = sec(2);
  spec.control.measure = sec(6);

  SweepOptions options;
  options.threads = 1;
  const SweepResult swept = run_sweep(spec, options);
  ASSERT_EQ(swept.failures(), 0u);
  ASSERT_EQ(swept.points.size(), 20u);

  for (const PointResult& point : swept.points) {
    const ScenarioConfig scenario = spec.make_scenario(point.point);
    const RunControl& control = spec.control;
    const BitRate baseline = measure_baseline(scenario, control);
    EXPECT_EQ(point.baseline_goodput, baseline);
    // The exact train the sweep planner derives for this point.
    AttackPlanRequest request;
    request.victim = scenario.victim_profile();
    request.textent = point.point.textent;
    request.rattack = point.point.rattack;
    request.kappa = point.point.kappa;
    request.attack_packet_bytes = scenario.attack_packet_bytes;
    request.victim_min_rto = scenario.tcp.rto_min;
    const AttackPlan plan = plan_attack_at_gamma(request, point.point.gamma);
    const GainMeasurement direct = measure_gain(
        scenario, plan.train, point.point.kappa, control, baseline);
    EXPECT_EQ(point.measured_gain, direct.gain)
        << "textent " << point.point.textent << " gamma "
        << point.point.gamma << " replicate " << point.point.replicate;
    EXPECT_EQ(point.measured_degradation, direct.degradation);
    EXPECT_EQ(point.goodput, direct.run.goodput_rate);
  }
}

TEST(BatchedSweep, FluidReplicateDedupeKeepsCsvBytes) {
  // The fluid tier solves each attack plan once and fans the result out to
  // every replicate (the solver never reads the seed). The dedupe must be
  // invisible in the output: same CSV bytes as solving every replicate on
  // its own.
  SweepSpec spec;
  spec.backend = Backend::kFluid;
  spec.flow_counts = {3};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.4, 0.6};
  spec.replicates = 4;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.0);

  const SweepResult batched = run_sweep(spec, {});
  ASSERT_EQ(batched.failures(), 0u);
  ASSERT_EQ(batched.points.size(), 8u);

  SweepResult solo = batched;
  for (PointResult& row : solo.points) {
    const ScenarioConfig scenario = spec.make_scenario(row.point);
    AttackPlanRequest request;
    request.victim = scenario.victim_profile();
    request.textent = row.point.textent;
    request.rattack = row.point.rattack;
    request.kappa = row.point.kappa;
    request.attack_packet_bytes = scenario.attack_packet_bytes;
    request.victim_min_rto = scenario.tcp.rto_min;
    const PulseTrain train =
        plan_attack_at_gamma(request, row.point.gamma).train;
    const BitRate baseline = measure_baseline(scenario, spec.control);
    const GainMeasurement m =
        measure_gain(scenario, train, row.point.kappa, spec.control, baseline);
    row.baseline_goodput = baseline;
    row.goodput = m.run.goodput_rate;
    row.measured_degradation = m.degradation;
    row.measured_gain = m.gain;
    row.utilization = m.run.utilization;
    row.fairness = m.run.fairness_index;
    row.timeouts = m.run.total_timeouts;
    row.fast_recoveries = m.run.total_fast_recoveries;
    row.attack_packets = m.run.attack_packets_sent;
    row.events = m.run.events_executed;
  }

  std::ostringstream a, b;
  solo.write_csv(a);
  batched.write_csv(b);
  EXPECT_EQ(b.str(), a.str());
}

TEST(AggregateReplicates, MeanStddevAndCiOverReplicates) {
  // Hand-checkable statistics: two axes groups, one with gains {1, 2, 3}
  // (mean 2, sample stddev 1), one with a failed replicate excluded.
  SweepResult result;
  auto push = [&result](double gamma, int replicate, double gain,
                        PointStatus status) {
    PointResult r;
    r.index = result.points.size();
    r.point.gamma = gamma;
    r.point.replicate = replicate;
    r.status = status;
    r.measured_gain = gain;
    r.measured_degradation = gain / 2.0;
    r.goodput = gain * 1e6;
    result.points.push_back(r);
  };
  push(0.3, 0, 1.0, PointStatus::kOk);
  push(0.3, 1, 2.0, PointStatus::kOk);
  push(0.3, 2, 3.0, PointStatus::kOk);
  push(0.6, 0, 5.0, PointStatus::kOk);
  push(0.6, 1, 0.0, PointStatus::kFailed);
  push(0.6, 2, 7.0, PointStatus::kOk);

  const std::vector<AggregateRow> rows = aggregate_replicates(result);
  ASSERT_EQ(rows.size(), 2u);

  EXPECT_EQ(rows[0].replicates, 3u);
  EXPECT_DOUBLE_EQ(rows[0].mean_gain, 2.0);
  EXPECT_DOUBLE_EQ(rows[0].stddev_gain, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].ci95_gain, 1.96 / std::sqrt(3.0));
  EXPECT_DOUBLE_EQ(rows[0].mean_degradation, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].mean_goodput, 2e6);

  EXPECT_EQ(rows[1].replicates, 2u);  // the failed replicate is excluded
  EXPECT_DOUBLE_EQ(rows[1].mean_gain, 6.0);
  EXPECT_DOUBLE_EQ(rows[1].stddev_gain, std::sqrt(2.0));

  std::ostringstream csv;
  write_aggregate_csv(rows, csv);
  EXPECT_NE(csv.str().find("mean_gain"), std::string::npos);
  EXPECT_NE(csv.str().find("ci95_gain"), std::string::npos);
}

TEST(AggregateReplicates, SingleReplicateHasZeroSpread) {
  SweepResult result;
  PointResult r;
  r.status = PointStatus::kOk;
  r.measured_gain = 4.2;
  result.points.push_back(r);
  const auto rows = aggregate_replicates(result);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].replicates, 1u);
  EXPECT_DOUBLE_EQ(rows[0].mean_gain, 4.2);
  EXPECT_DOUBLE_EQ(rows[0].stddev_gain, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].ci95_gain, 0.0);
}

TEST(SweepResult, CsvHasHeaderAndOneRowPerPoint) {
  SweepSpec spec = tiny_spec();
  spec.gammas = {0.5};
  spec.replicates = 1;
  const SweepResult result = run_sweep(spec, {});
  std::ostringstream out;
  result.write_csv(out);
  const std::string csv = out.str();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + result.points.size());
  EXPECT_EQ(csv.find("index,scenario_flows,"), 0u);
}

}  // namespace
}  // namespace pdos::sweep
