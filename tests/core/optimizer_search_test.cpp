// Search-then-confirm regression: the fluid-surrogate search must land on
// the same γ* as the all-packet reference search on the committed scenario,
// while spending far fewer packet runs. This is the contract that lets
// sweeps and planners use the fluid tier as the optimizer's inner loop.
// Plus the FluidGainCache hook: a search against a warmed cache skips every
// already-solved fluid lane and returns bit-identical results.
#include "core/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/model.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

GammaSearch committed_search() {
  GammaSearch search;
  search.scenario = ScenarioConfig::ns2_dumbbell(15);
  search.textent = ms(50);
  search.rattack = mbps(25);
  search.kappa = 1.0;
  search.control.warmup = sec(5);
  search.control.measure = sec(15);
  search.grid_points = 7;
  search.confirm_top = 3;
  return search;
}

TEST(SearchConfirmTest, MatchesPacketOnlySearchOnCommittedScenario) {
  const GammaSearch search = committed_search();
  const GammaSearchResult confirmed = search_confirm_gamma(search);
  const GammaSearchResult reference = search_gamma_packet_only(search);

  // Same grid in both modes.
  ASSERT_EQ(confirmed.candidates.size(), reference.candidates.size());
  for (std::size_t i = 0; i < confirmed.candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(confirmed.candidates[i].gamma,
                     reference.candidates[i].gamma);
  }

  // The acceptance contract: fluid-search + packet-confirm returns the
  // exact γ* the all-packet search returns.
  EXPECT_DOUBLE_EQ(confirmed.gamma_star, reference.gamma_star);
  EXPECT_DOUBLE_EQ(confirmed.gain, reference.gain);
  EXPECT_DOUBLE_EQ(confirmed.degradation, reference.degradation);
  EXPECT_DOUBLE_EQ(confirmed.baseline_goodput, reference.baseline_goodput);

  // And it does so with a fraction of the packet work: confirm_top + the
  // baseline instead of every grid point + the baseline.
  EXPECT_EQ(confirmed.packet_runs, search.confirm_top + 1);
  EXPECT_EQ(reference.packet_runs, search.grid_points + 1);
  EXPECT_EQ(confirmed.fluid_runs, search.grid_points + 1);
  EXPECT_EQ(reference.fluid_runs, 0);

  // The surrogate's own optimum should be in the right neighbourhood of
  // the closed form (Corollary 3: γ* = sqrt(C_Ψ) under the model).
  EXPECT_GT(confirmed.gamma_star_fluid, 0.0);
  EXPECT_LT(std::abs(confirmed.gamma_star_fluid - confirmed.gamma_star),
            0.35);
}

TEST(SearchConfirmTest, ConfirmedWinnerHasPositiveMeasuredGain) {
  const GammaSearchResult result = search_confirm_gamma(committed_search());
  EXPECT_GT(result.gain, 0.0);
  EXPECT_GT(result.degradation, 0.0);
  EXPECT_LT(result.degradation, 1.0);
  int confirmed_count = 0;
  for (const auto& cand : result.candidates) {
    if (cand.confirmed) ++confirmed_count;
    EXPECT_GE(cand.gamma, 0.0);
    EXPECT_LT(cand.gamma, 1.0);
  }
  EXPECT_EQ(confirmed_count, 3);
}

TEST(SearchConfirmTest, RejectsDegenerateRequests) {
  GammaSearch search = committed_search();
  search.grid_points = 1;
  EXPECT_THROW(search_confirm_gamma(search), ParameterError);
  search = committed_search();
  search.confirm_top = 0;
  EXPECT_THROW(search_confirm_gamma(search), ParameterError);
  search = committed_search();
  search.gamma_lo = 0.9;
  search.gamma_hi = 0.5;
  EXPECT_THROW(search_confirm_gamma(search), ParameterError);
}

/// Map-backed FluidGainCache, keyed by γ alone: each test drives one
/// search, so γ is the only axis that varies between lookups.
class MapFluidGainCache final : public FluidGainCache {
 public:
  std::optional<BitRate> lookup_baseline(const GammaSearch&) override {
    return baseline_;
  }
  void store_baseline(const GammaSearch&, BitRate baseline) override {
    baseline_ = baseline;
  }
  std::optional<double> lookup_gain(const GammaSearch&,
                                    double gamma) override {
    const auto it = gains_.find(gamma);
    if (it == gains_.end()) return std::nullopt;
    return it->second;
  }
  void store_gain(const GammaSearch&, double gamma, double gain) override {
    gains_[gamma] = gain;
  }

 private:
  std::optional<BitRate> baseline_;
  std::map<double, double> gains_;
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
  MapFluidGainCache cache;
  GammaSearch search = quick_search();
  search.fluid_cache = &cache;

  const GammaSearchResult cold = search_confirm_gamma(search);
  // Cold: every grid point plus the fluid baseline was actually solved.
  EXPECT_EQ(cold.fluid_runs, search.grid_points + 1);
  EXPECT_EQ(cold.packet_runs, search.confirm_top + 1);

  const GammaSearchResult warm = search_confirm_gamma(search);
  EXPECT_EQ(warm.fluid_runs, 0);  // every lane replayed from the cache
  EXPECT_EQ(warm.packet_runs, search.confirm_top + 1);
  expect_same_search_result(cold, warm);
}

TEST(OptimizerCacheTest, PartiallyWarmedStoreSolvesOnlyTheMisses) {
  // Recover the search's auto γ grid by running once without a cache, then
  // warm 2 of the 5 grid lanes plus the baseline by hand, with sentinel
  // gains no real solve produces — so hits provably come from the cache.
  GammaSearch search = quick_search();
  const GammaSearchResult reference = search_confirm_gamma(search);
  MapFluidGainCache cache;
  cache.store_baseline(search, reference.fluid_baseline_goodput);
  cache.store_gain(search, reference.candidates[1].gamma, 123.5);
  cache.store_gain(search, reference.candidates[3].gamma, -7.25);

  search.fluid_cache = &cache;
  const GammaSearchResult result = search_confirm_gamma(search);
  // 5 grid points, 2 warmed, baseline warmed: 3 solves.
  EXPECT_EQ(result.fluid_runs, search.grid_points - 2);
  EXPECT_EQ(result.candidates[1].fluid_gain, 123.5);
  EXPECT_EQ(result.candidates[3].fluid_gain, -7.25);
  // The cold lanes match the no-cache reference bit for bit (they ran in a
  // different batch shape — 3 lanes instead of 5 — which must not matter).
  EXPECT_EQ(result.candidates[0].fluid_gain,
            reference.candidates[0].fluid_gain);
  EXPECT_EQ(result.candidates[2].fluid_gain,
            reference.candidates[2].fluid_gain);
  EXPECT_EQ(result.candidates[4].fluid_gain,
            reference.candidates[4].fluid_gain);
}

}  // namespace
}  // namespace pdos
