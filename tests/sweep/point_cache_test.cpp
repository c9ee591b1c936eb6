// PointCache: key derivation sensitivity, persistence round-trips,
// tolerance of corrupt lines, and refusal of files the cache did not write.
#include "sweep/point_cache.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "sweep/sweep.hpp"
#include "util/assert.hpp"

namespace pdos::sweep {
namespace {

class TempCacheFile {
 public:
  TempCacheFile() {
    char name[] = "/tmp/pdos_point_cache_test_XXXXXX";
    const int fd = mkstemp(name);
    EXPECT_GE(fd, 0);
    if (fd >= 0) close(fd);
    path_ = name;
    std::remove(path_.c_str());  // tests want "file does not exist yet"
  }
  ~TempCacheFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SweepSpec quick_spec() {
  SweepSpec spec;
  spec.flow_counts = {15};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.5};
  spec.control.warmup = sec(1);
  spec.control.measure = sec(2);
  return spec;
}

CachedPoint sample_point() {
  CachedPoint p;
  p.c_psi = 0.123456789012345678;
  p.analytic_degradation = 0.25;
  p.analytic_gain = 0.5;
  p.shrew = true;
  p.baseline_goodput = 14095466.666666666;
  p.goodput = 7047733.3333333331;
  p.measured_degradation = 0.5;
  p.measured_gain = 0.25;
  p.utilization = 0.47;
  p.fairness = 0.93;
  p.timeouts = 321;
  p.fast_recoveries = 12;
  p.attack_packets = 98765;
  p.events = 1234567890123ull;
  return p;
}

TEST(PointCacheTest, MissThenHit) {
  TempCacheFile file;
  PointCache cache(file.path());
  CachedPoint out;
  EXPECT_FALSE(cache.lookup_point(42, out));
  cache.store_point(42, sample_point());
  ASSERT_TRUE(cache.lookup_point(42, out));
  EXPECT_EQ(out.timeouts, 321u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PointCacheTest, PersistsExactDoublesAcrossReload) {
  TempCacheFile file;
  const CachedPoint stored = sample_point();
  {
    PointCache cache(file.path());
    cache.store_point(7, stored);
    cache.store_baseline(9, 14095466.666666666);
  }
  PointCache reloaded(file.path());
  EXPECT_EQ(reloaded.size(), 2u);
  CachedPoint out;
  ASSERT_TRUE(reloaded.lookup_point(7, out));
  // Bit-exact round-trip: cached results must reproduce the CSV a live
  // run would write, byte for byte.
  EXPECT_EQ(out.c_psi, stored.c_psi);
  EXPECT_EQ(out.baseline_goodput, stored.baseline_goodput);
  EXPECT_EQ(out.goodput, stored.goodput);
  EXPECT_EQ(out.fairness, stored.fairness);
  EXPECT_EQ(out.shrew, stored.shrew);
  EXPECT_EQ(out.events, stored.events);
  double goodput = 0.0;
  ASSERT_TRUE(reloaded.lookup_baseline(9, goodput));
  EXPECT_EQ(goodput, 14095466.666666666);
}

TEST(PointCacheTest, SkipsMalformedLines) {
  TempCacheFile file;
  {
    PointCache cache(file.path());
    cache.store_point(1, sample_point());
    cache.store_baseline(2, 5.0);
  }
  // Simulate a torn tail write plus random garbage in the middle.
  {
    std::ofstream out(file.path(), std::ios::app);
    out << "X nonsense record\n";
    out << "P 00000000000000ff 1.0 2.0\n";  // truncated point line
    out << "B zzzz not-a-number\n";
    out << "P 00000000000000";  // no newline, torn mid-key
  }
  PointCache reloaded(file.path());
  EXPECT_EQ(reloaded.size(), 2u) << "only the two intact records survive";
  CachedPoint out;
  EXPECT_TRUE(reloaded.lookup_point(1, out));
  CachedPoint bogus;
  EXPECT_FALSE(reloaded.lookup_point(0xff, bogus));
}

TEST(PointCacheTest, ForeignHeaderLoadsEmptyAndIsRewritten) {
  // A file the cache did not write is refused: the constructor throws
  // naming it, and the file stays byte for byte as it was.
  TempCacheFile file;
  const std::string foreign =
      "some-other-format-v9\n"
      "P 0000000000000001 1 1 1 1 1 1 1 1 1 1 1 1 1 1\n";
  { std::ofstream(file.path(), std::ios::binary) << foreign; }
  try {
    PointCache cache(file.path());
    ADD_FAILURE() << "a foreign file must be refused";
  } catch (const ParameterError& e) {
    EXPECT_NE(std::string(e.what()).find(file.path()), std::string::npos)
        << e.what();
  }
  std::ifstream in(file.path(), std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), foreign);
}

TEST(PointCacheTest, MissingDirectoryIsCreated) {
  TempCacheFile file;
  const std::string nested = file.path() + ".d/sub/points.cache";
  {
    PointCache cache(nested);
    cache.store_baseline(1, 2.0);
  }
  PointCache reloaded(nested);
  double goodput = 0.0;
  EXPECT_TRUE(reloaded.lookup_baseline(1, goodput));
  std::remove(nested.c_str());
  std::remove((file.path() + ".d/sub").c_str());
  std::remove((file.path() + ".d").c_str());
}

TEST(PointCacheKeyTest, DistinctPointsGetDistinctKeys) {
  const SweepSpec spec = quick_spec();
  PointSpec a;
  a.flows = 15;
  a.gamma = 0.5;
  PointSpec b = a;
  b.gamma = 0.6;
  EXPECT_NE(point_key(spec, a, 1), point_key(spec, b, 1));
  EXPECT_NE(point_key(spec, a, 1), point_key(spec, a, 2))
      << "seed must be part of the key";
}

TEST(PointCacheKeyTest, ScenarioChangesInvalidateTheKey) {
  const SweepSpec spec = quick_spec();
  PointSpec point;
  const std::uint64_t base = point_key(spec, point, 1);

  SweepSpec queue_changed = spec;
  queue_changed.queue = QueueKind::kDropTail;
  EXPECT_NE(point_key(queue_changed, point, 1), base);

  SweepSpec window_changed = spec;
  window_changed.control.measure = sec(3);
  EXPECT_NE(point_key(window_changed, point, 1), base);

  SweepSpec scenario_changed = spec;
  scenario_changed.scenario = ScenarioKind::kTestbed;
  EXPECT_NE(point_key(scenario_changed, point, 1), base);
}

TEST(PointCacheKeyTest, BaselineKeyIgnoresAttackAxes) {
  const SweepSpec spec = quick_spec();
  PointSpec a;
  a.textent = ms(50);
  a.rattack = mbps(25);
  a.gamma = 0.4;
  PointSpec b = a;
  b.textent = ms(100);
  b.rattack = mbps(40);
  b.gamma = 0.8;
  EXPECT_EQ(baseline_key(spec, a, 1), baseline_key(spec, b, 1))
      << "one baseline normalizes every attack point of its pair";
  b.flows = 25;
  EXPECT_NE(baseline_key(spec, a, 1), baseline_key(spec, b, 1));
}

TEST(PointCacheKeyTest, BackendIsPartOfTheKey) {
  // A --resume replay must never answer a fluid (or fast) point
  // from a cache populated by a full-packet campaign, or vice versa: the
  // tiers measure different things at identical parameters.
  const SweepSpec spec = quick_spec();
  PointSpec point;
  const std::uint64_t base_point = point_key(spec, point, 1);
  const std::uint64_t base_baseline = baseline_key(spec, point, 1);

  for (Backend backend : {Backend::kFast, Backend::kFluid}) {
    SweepSpec tier = spec;
    tier.backend = backend;
    EXPECT_NE(point_key(tier, point, 1), base_point)
        << backend_name(backend);
    EXPECT_NE(baseline_key(tier, point, 1), base_baseline)
        << backend_name(backend);
  }

  // And the three backends are pairwise distinct.
  SweepSpec fast = spec;
  fast.backend = Backend::kFast;
  SweepSpec fluid = spec;
  fluid.backend = Backend::kFluid;
  EXPECT_NE(point_key(fast, point, 1), point_key(fluid, point, 1));
}

TEST(PointCacheKeyTest, KeysAreStableAcrossCalls) {
  const SweepSpec spec = quick_spec();
  PointSpec point;
  EXPECT_EQ(point_key(spec, point, 1), point_key(spec, point, 1));
  EXPECT_EQ(baseline_key(spec, point, 1), baseline_key(spec, point, 1));
}

}  // namespace
}  // namespace pdos::sweep
