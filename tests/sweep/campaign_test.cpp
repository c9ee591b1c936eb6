// Campaign orchestration: cross-process dedup through the shared store,
// the no-duplicated-work invariant of run_campaign, byte-identical merged
// CSVs across campaigns, and lookup-only replay.
#include "sweep/campaign.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "sweep/campaign_store.hpp"
#include "sweep/parallel_for.hpp"
#include "sweep/point_cache.hpp"
#include "util/assert.hpp"

namespace pdos::sweep {
namespace {

class TempDir {
 public:
  TempDir() {
    char name[] = "/tmp/pdos_campaign_test_XXXXXX";
    EXPECT_NE(mkdtemp(name), nullptr);
    path_ = name;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string sub(const std::string& leaf) const { return path_ + "/" + leaf; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Small, fast-backend grid: 2 points x 2 replicates + 2 baselines.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.backend = Backend::kFast;
  spec.flow_counts = {3};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.3, 0.6};
  spec.replicates = 2;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.5);
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string csv_of(const SweepResult& result) {
  std::ostringstream out;
  result.write_csv(out);
  return out.str();
}

// The cross-process dedup satellite: a child process sweeps the grid cold
// through a CampaignStore, then this process sweeps the same grid against
// the same store — every task must be a hit and the tables byte-identical.
TEST(CampaignTest, SecondProcessGetsAllHitsAndIdenticalCsv) {
  TempDir dir;
  const SweepSpec spec = tiny_spec();
  const std::string child_csv = dir.sub("child.csv");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CampaignStore store(dir.sub("store.d"));
    SweepOptions options;
    options.threads = 1;
    options.store = &store;
    const SweepResult result = run_sweep(spec, options);
    std::ofstream out(child_csv, std::ios::binary);
    result.write_csv(out);
    out.close();  // _exit skips destructors; flush explicitly
    _exit(result.failures() == 0 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  CampaignStore store(dir.sub("store.d"));
  SweepOptions options;
  options.threads = 1;
  options.store = &store;
  const SweepResult result = run_sweep(spec, options);
  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.simulated, 0u);  // 100% cache hits
  EXPECT_EQ(result.cache_hits, count_unique_tasks(spec));
  EXPECT_EQ(csv_of(result), slurp(child_csv));
}

// Thread and worker counts above the bound fail before any fork: no worker
// ever opens, and so creates, the store directory.
TEST(CampaignTest, RejectsCountsAboveTheBoundBeforeForking) {
  TempDir dir;
  CampaignSpec spec;
  spec.spec = tiny_spec();
  spec.name = "tiny";
  CampaignOptions options;
  options.store_dir = dir.sub("store.d");
  options.workers = 1;
  options.threads = kMaxWorkers + 1;
  EXPECT_THROW(run_campaign({spec}, options), ParameterError);
  EXPECT_FALSE(std::filesystem::exists(options.store_dir));

  // The worker bound is checked before the spec list, so this case could
  // not fork even if the check were missing: it would fail on "no specs".
  options.workers = kMaxWorkers + 1;
  options.threads = 1;
  try {
    run_campaign({}, options);
    ADD_FAILURE() << "workers = 1025 accepted";
  } catch (const ParameterError& e) {
    EXPECT_EQ(std::string(e.what()),
              "run_campaign: workers: must be at most 1024, got 1025");
  }
}

TEST(CampaignTest, ColdCampaignNeverDuplicatesWork) {
  TempDir dir;
  CampaignSpec spec;
  spec.spec = tiny_spec();
  spec.csv_path = dir.sub("out/tiny.csv");
  spec.name = "tiny";

  CampaignOptions options;
  options.store_dir = dir.sub("store.d");
  options.workers = 2;
  options.threads = 1;
  options.claim_poll_seconds = 0.01;

  const CampaignResult cold = run_campaign({spec}, options);
  EXPECT_TRUE(cold.ok());
  EXPECT_EQ(cold.worker_failures, 0);
  EXPECT_EQ(cold.unique_tasks, count_unique_tasks(spec.spec));
  // The claim protocol's whole point: K workers, each walking the full
  // grid, together simulate each unique task at most once.
  EXPECT_LE(cold.worker_simulated + cold.final_simulated, cold.unique_tasks);
  EXPECT_GT(cold.worker_simulated + cold.final_simulated, 0u);
  const std::string cold_csv = slurp(spec.csv_path);
  EXPECT_FALSE(cold_csv.empty());

  // Resubmitting the identical campaign answers everything from the store
  // and reproduces the merged CSV byte for byte.
  CampaignSpec again = spec;
  again.csv_path = dir.sub("out/tiny2.csv");
  const CampaignResult warm = run_campaign({again}, options);
  EXPECT_TRUE(warm.ok());
  EXPECT_EQ(warm.worker_simulated, 0u);
  EXPECT_EQ(warm.final_simulated, 0u);
  EXPECT_EQ(slurp(again.csv_path), cold_csv);
}

TEST(CampaignTest, OverlappingSpecsShareTheStore) {
  TempDir dir;
  // Warm the store with a 1-gamma subset...
  SweepSpec subset = tiny_spec();
  subset.gammas = {0.3};
  {
    CampaignStore store(dir.sub("store.d"));
    SweepOptions options;
    options.threads = 1;
    options.store = &store;
    const SweepResult r = run_sweep(subset, options);
    ASSERT_EQ(r.failures(), 0u);
  }
  // ...then a sweep of the 2-gamma superset only simulates the missing
  // gamma (keys are content hashes, not per-spec).
  CampaignStore store(dir.sub("store.d"));
  const SweepSpec superset = tiny_spec();
  SweepOptions options;
  options.threads = 1;
  options.store = &store;
  const SweepResult full = run_sweep(superset, options);
  EXPECT_EQ(full.failures(), 0u);
  EXPECT_EQ(full.simulated,
            count_unique_tasks(superset) - count_unique_tasks(subset));
}

/// Calls `visit(point_key, baseline_key)` for every point of `spec`.
template <typename Visit>
void for_each_task_key(const SweepSpec& spec, Visit&& visit) {
  for (const PointSpec& point : spec.enumerate()) {
    const std::uint64_t seed = replicate_seed(spec.base_seed, point.replicate);
    visit(point_key(spec, point, seed), baseline_key(spec, point, seed));
  }
}

/// Lease every task of `spec` to `peer`, as a worker of another process
/// would before simulating them.
void claim_every_task(const SweepSpec& spec, CampaignStore& peer) {
  for_each_task_key(spec, [&](std::uint64_t point, std::uint64_t baseline) {
    EXPECT_EQ(peer.claim_point(point), PointStore::ClaimStatus::kAcquired);
    EXPECT_EQ(peer.claim_baseline(baseline),
              PointStore::ClaimStatus::kAcquired);
  });
}

// The deferred-task drain, driven without relying on two workers happening
// to collide: a peer store in this process leases every task first, so
// every claim of the sweep's own store comes back kBusy.
TEST(CampaignTest, DrainWaitsOutExpiredPeerLeases) {
  for (const Backend backend : {Backend::kFast, Backend::kFluid}) {
    SCOPED_TRACE(backend_name(backend));
    TempDir dir;
    SweepSpec spec = tiny_spec();
    spec.backend = backend;
    SweepOptions plain;
    plain.threads = 1;
    const std::string reference = csv_of(run_sweep(spec, plain));

    CampaignStore peer(dir.sub("store.d"), /*lease_ttl_seconds=*/0.3);
    claim_every_task(spec, peer);
    CampaignStore store(dir.sub("store.d"));
    SweepOptions options;
    options.threads = 2;
    options.store = &store;
    options.claim_poll_seconds = 0.01;
    std::size_t ticks = 0;
    options.on_progress = [&](const SweepProgress&) { ++ticks; };
    const SweepResult result = run_sweep(spec, options);
    // The peer never finishes: once its leases expire, this sweep claims
    // and simulates every task itself.
    EXPECT_EQ(result.failures(), 0u);
    EXPECT_EQ(result.simulated, 6u);
    EXPECT_EQ(result.cache_hits, 0u);
    EXPECT_EQ(ticks, 6u);
    EXPECT_EQ(csv_of(result), reference);
  }
}

TEST(CampaignTest, DrainPicksUpResultsAPeerStores) {
  for (const Backend backend : {Backend::kFast, Backend::kFluid}) {
    SCOPED_TRACE(backend_name(backend));
    TempDir dir;
    SweepSpec spec = tiny_spec();
    spec.backend = backend;
    CampaignStore reference(dir.sub("reference.d"));
    SweepOptions plain;
    plain.threads = 1;
    plain.store = &reference;
    const SweepResult expected = run_sweep(spec, plain);
    ASSERT_EQ(expected.failures(), 0u);

    CampaignStore peer(dir.sub("store.d"), /*lease_ttl_seconds=*/60.0);
    claim_every_task(spec, peer);
    // The peer lands its results while this sweep's tasks wait on its
    // live leases (a jthread joins on every exit path).
    std::jthread finisher([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      for_each_task_key(spec, [&](std::uint64_t point, std::uint64_t baseline) {
        CachedPoint value;
        double goodput = 0.0;
        if (reference.lookup_point(point, value)) peer.store_point(point, value);
        if (reference.lookup_baseline(baseline, goodput)) {
          peer.store_baseline(baseline, goodput);
        }
      });
    });
    CampaignStore store(dir.sub("store.d"));
    SweepOptions options;
    options.threads = 2;
    options.store = &store;
    options.claim_poll_seconds = 0.01;
    const SweepResult result = run_sweep(spec, options);
    finisher.join();
    EXPECT_EQ(result.failures(), 0u);
    EXPECT_EQ(result.simulated, 0u);
    EXPECT_EQ(result.cache_hits, 6u);
    EXPECT_EQ(csv_of(result), csv_of(expected));
  }
}

TEST(CampaignTest, RejectsBadLeaseTtlBeforeForking) {
  TempDir dir;
  CampaignSpec spec;
  spec.spec = tiny_spec();
  CampaignOptions options;
  options.store_dir = dir.sub("store.d");
  for (double ttl : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    options.lease_ttl_seconds = ttl;
    EXPECT_THROW(run_campaign({spec}, options), ParameterError) << ttl;
  }
  // No worker ran: workers create the store directory when they open it.
  EXPECT_FALSE(std::filesystem::exists(options.store_dir));
}

TEST(CampaignTest, RejectsUnopenableOutputBeforeForking) {
  TempDir dir;
  { std::ofstream(dir.sub("afile")) << "a regular file\n"; }
  CampaignSpec spec;
  spec.spec = tiny_spec();
  spec.csv_path = dir.sub("afile/out/tiny.csv");
  CampaignOptions options;
  options.store_dir = dir.sub("store.d");
  options.workers = 1;
  options.threads = 1;
  try {
    run_campaign({spec}, options);
    ADD_FAILURE() << "an output under a regular file must not open";
  } catch (const ParameterError& e) {
    EXPECT_NE(std::string(e.what()).find(spec.csv_path), std::string::npos)
        << e.what();
  }
  // No worker ran: workers create the store directory when they open it.
  EXPECT_FALSE(std::filesystem::exists(options.store_dir));
}

TEST(CampaignTest, RejectsOutputNamedTwiceBeforeForking) {
  // Two specs with one stem under --csv-dir map to one path; both tables
  // cannot land there.
  TempDir dir;
  CampaignSpec first;
  first.spec = tiny_spec();
  first.csv_path = dir.sub("out/tiny.csv");
  CampaignSpec second = first;
  second.spec.gammas = {0.5};
  CampaignOptions options;
  options.store_dir = dir.sub("store.d");
  options.workers = 1;
  options.threads = 1;
  EXPECT_THROW(run_campaign({first, second}, options), ParameterError);
  EXPECT_FALSE(std::filesystem::exists(options.store_dir));
  EXPECT_FALSE(std::filesystem::exists(first.csv_path));  // nothing opened
}

TEST(CampaignTest, CountUniqueTasksIsPointsPlusUniqueBaselines) {
  const SweepSpec spec = tiny_spec();
  // One flow count: one baseline per replicate, shared by both gammas.
  EXPECT_EQ(count_unique_tasks(spec),
            spec.enumerate().size() + spec.replicates);
}

}  // namespace
}  // namespace pdos::sweep
