// FluidGainPointStoreCache: a γ search resumed against a warmed store
// must skip every already-solved fluid lane (fluid_runs == 0) and return
// bit-identical results — the optimizer-side face of the lane-batched
// fluid tier's determinism contract (DESIGN.md §16). Plus key-derivation
// sensitivity for the fluid-gain/fluid-baseline digests.
#include "sweep/optimizer_cache.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "core/optimizer.hpp"
#include "sweep/point_cache.hpp"

namespace pdos::sweep {
namespace {

class TempCacheFile {
 public:
  TempCacheFile() {
    char name[] = "/tmp/pdos_optimizer_cache_test_XXXXXX";
    const int fd = mkstemp(name);
    EXPECT_GE(fd, 0);
    if (fd >= 0) close(fd);
    path_ = name;
    std::remove(path_.c_str());
  }
  ~TempCacheFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

GammaSearch quick_search() {
  GammaSearch search;
  search.scenario = ScenarioConfig::ns2_dumbbell(15);
  search.textent = ms(50);
  search.rattack = mbps(25);
  search.kappa = 1.0;
  search.control.warmup = sec(2);
  search.control.measure = sec(6);
  search.grid_points = 5;
  search.confirm_top = 1;
  return search;
}

void expect_same_search_result(const GammaSearchResult& a,
                               const GammaSearchResult& b) {
  EXPECT_EQ(a.gamma_star, b.gamma_star);
  EXPECT_EQ(a.gain, b.gain);
  EXPECT_EQ(a.degradation, b.degradation);
  EXPECT_EQ(a.gamma_star_fluid, b.gamma_star_fluid);
  EXPECT_EQ(a.baseline_goodput, b.baseline_goodput);
  EXPECT_EQ(a.fluid_baseline_goodput, b.fluid_baseline_goodput);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].gamma, b.candidates[i].gamma);
    EXPECT_EQ(a.candidates[i].fluid_gain, b.candidates[i].fluid_gain);
    EXPECT_EQ(a.candidates[i].confirmed, b.candidates[i].confirmed);
  }
}

TEST(OptimizerCacheTest, ResumedSearchSkipsSolvedFluidLanes) {
  TempCacheFile file;
  GammaSearch search = quick_search();

  GammaSearchResult cold;
  {
    PointCache cache(file.path());
    FluidGainPointStoreCache fluid_cache(cache);
    search.fluid_cache = &fluid_cache;
    cold = search_confirm_gamma(search);
  }
  // Cold: every grid point plus the fluid baseline was actually solved.
  EXPECT_EQ(cold.fluid_runs, search.grid_points + 1);
  EXPECT_EQ(cold.packet_runs, search.confirm_top + 1);

  // Resume from the PERSISTED file in a fresh store instance, as a
  // restarted process would.
  PointCache cache(file.path());
  EXPECT_GT(cache.size(), 0u);
  FluidGainPointStoreCache fluid_cache(cache);
  search.fluid_cache = &fluid_cache;
  const GammaSearchResult warm = search_confirm_gamma(search);

  EXPECT_EQ(warm.fluid_runs, 0);  // every lane replayed from the store
  EXPECT_EQ(warm.packet_runs, search.confirm_top + 1);
  expect_same_search_result(cold, warm);
}

TEST(OptimizerCacheTest, PartiallyWarmedStoreSolvesOnlyTheMisses) {
  TempCacheFile file;
  PointCache cache(file.path());
  FluidGainPointStoreCache fluid_cache(cache);

  // Warm 2 of the 5 grid lanes plus the baseline by hand, with sentinel
  // gains that can't arise from a real solve — proving hits come from the
  // store, not a re-solve.
  GammaSearch search = quick_search();
  // Recover the search's auto γ grid by running once WITHOUT a cache, then
  // seed selected lanes (keys hash the exact candidate γ doubles).
  const GammaSearchResult reference = search_confirm_gamma(search);
  fluid_cache.store_baseline(search, reference.fluid_baseline_goodput);
  fluid_cache.store_gain(search, reference.candidates[1].gamma, 123.5);
  fluid_cache.store_gain(search, reference.candidates[3].gamma, -7.25);

  search.fluid_cache = &fluid_cache;
  const GammaSearchResult result = search_confirm_gamma(search);
  // 5 grid points, 2 warmed, baseline warmed: 3 solves.
  EXPECT_EQ(result.fluid_runs, search.grid_points - 2);
  EXPECT_EQ(result.candidates[1].fluid_gain, 123.5);
  EXPECT_EQ(result.candidates[3].fluid_gain, -7.25);
  // The cold lanes match the no-cache reference bit-for-bit (they ran in a
  // different batch shape — 3 lanes instead of 5 — which must not matter).
  EXPECT_EQ(result.candidates[0].fluid_gain,
            reference.candidates[0].fluid_gain);
  EXPECT_EQ(result.candidates[2].fluid_gain,
            reference.candidates[2].fluid_gain);
  EXPECT_EQ(result.candidates[4].fluid_gain,
            reference.candidates[4].fluid_gain);
}

TEST(OptimizerCacheTest, GainKeySensitivity) {
  const GammaSearch base = quick_search();
  const std::uint64_t key = fluid_gain_key(base, 0.5);

  EXPECT_NE(key, fluid_gain_key(base, 0.5000001)) << "gamma must key";
  {
    GammaSearch s = base;
    s.textent = ms(60);
    EXPECT_NE(key, fluid_gain_key(s, 0.5)) << "textent must key";
  }
  {
    GammaSearch s = base;
    s.rattack = mbps(30);
    EXPECT_NE(key, fluid_gain_key(s, 0.5)) << "rattack must key";
  }
  {
    GammaSearch s = base;
    s.kappa = 2.0;
    EXPECT_NE(key, fluid_gain_key(s, 0.5)) << "kappa must key";
  }
  {
    GammaSearch s = base;
    s.control.measure = sec(7);
    EXPECT_NE(key, fluid_gain_key(s, 0.5)) << "control must key";
  }
  {
    GammaSearch s = base;
    s.scenario = ScenarioConfig::ns2_dumbbell(16);
    EXPECT_NE(key, fluid_gain_key(s, 0.5)) << "scenario must key";
  }
  // The confirm tier is NOT part of the fluid value: kFull and kFast
  // searches share their surrogate scores.
  {
    GammaSearch s = base;
    s.scenario.backend = Backend::kFast;
    EXPECT_EQ(key, fluid_gain_key(s, 0.5));
  }
  // Grid shape doesn't key either — a 5-point and a 9-point search reuse
  // each other's lanes wherever the γ values coincide.
  {
    GammaSearch s = base;
    s.grid_points = 9;
    s.confirm_top = 2;
    EXPECT_EQ(key, fluid_gain_key(s, 0.5));
  }
  // Gain and baseline namespaces never collide.
  EXPECT_NE(key, fluid_baseline_key(base));
}

TEST(OptimizerCacheTest, BaselineKeyIgnoresPulseShape) {
  const GammaSearch base = quick_search();
  GammaSearch other = base;
  other.textent = ms(100);
  other.rattack = mbps(40);
  other.kappa = 0.5;
  // One fluid baseline normalizes every pulse shape on this scenario.
  EXPECT_EQ(fluid_baseline_key(base), fluid_baseline_key(other));
  GammaSearch scen = base;
  scen.scenario = ScenarioConfig::ns2_dumbbell(20);
  EXPECT_NE(fluid_baseline_key(base), fluid_baseline_key(scen));
}

}  // namespace
}  // namespace pdos::sweep
