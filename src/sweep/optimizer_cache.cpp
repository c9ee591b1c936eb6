#include "sweep/optimizer_cache.hpp"

namespace pdos::sweep {

namespace {

/// The scenario whose fluid tier the cached values describe. The search's
/// own backend field selects the CONFIRM tier (kFull or kFast; the optimizer
/// coerces kFluid to kFull); the fluid phase always runs kFluid, so two
/// searches that differ only in confirm tier share their surrogate scores.
ScenarioConfig fluid_scenario(const GammaSearch& search) {
  ScenarioConfig config = search.scenario;
  config.backend = Backend::kFluid;
  return config;
}

}  // namespace

std::uint64_t fluid_gain_key(const GammaSearch& search, double gamma) {
  const double extra[] = {search.textent, search.rattack, search.kappa,
                          gamma};
  return scenario_digest("fluid-gain", fluid_scenario(search), search.control,
                         extra, 4);
}

std::uint64_t fluid_baseline_key(const GammaSearch& search) {
  return scenario_digest("fluid-baseline", fluid_scenario(search),
                         search.control, nullptr, 0);
}

std::optional<BitRate> FluidGainPointStoreCache::lookup_baseline(
    const GammaSearch& search) {
  double goodput = 0.0;
  if (!store_.lookup_baseline(fluid_baseline_key(search), goodput)) {
    return std::nullopt;
  }
  return goodput;
}

void FluidGainPointStoreCache::store_baseline(const GammaSearch& search,
                                              BitRate baseline) {
  store_.store_baseline(fluid_baseline_key(search), baseline);
}

std::optional<double> FluidGainPointStoreCache::lookup_gain(
    const GammaSearch& search, double gamma) {
  double gain = 0.0;
  if (!store_.lookup_baseline(fluid_gain_key(search, gamma), gain)) {
    return std::nullopt;
  }
  return gain;
}

void FluidGainPointStoreCache::store_gain(const GammaSearch& search,
                                          double gamma, double gain) {
  store_.store_baseline(fluid_gain_key(search, gamma), gain);
}

}  // namespace pdos::sweep
