#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "attack/pulse.hpp"
#include "core/model.hpp"
#include "util/assert.hpp"

namespace pdos {

namespace {
void check_cpsi(double cpsi) {
  PDOS_REQUIRE(cpsi > 0.0 && cpsi < 1.0,
               "optimizer: C_Psi must be in (0, 1) for a feasible attack");
}
}  // namespace

double optimal_gamma(double cpsi, double kappa) {
  check_cpsi(cpsi);
  PDOS_REQUIRE(kappa >= 0.0, "optimizer: kappa must be >= 0");
  if (kappa == 0.0) return 1.0;  // Corollary 2 limit: risk ignored entirely
  const double one_minus_k = 1.0 - kappa;
  const double disc =
      std::sqrt(cpsi * cpsi * one_minus_k * one_minus_k + 4.0 * kappa * cpsi);
  // Rationalized Eq. (13); equals (CΨ(1−κ) − disc)/(−2κ) without the 0/0.
  return 2.0 * cpsi / (disc + cpsi * one_minus_k);
}

double optimal_gamma_risk_neutral(double cpsi) {
  check_cpsi(cpsi);
  return std::sqrt(cpsi);
}

double golden_section_max(const std::function<double(double)>& f, double lo,
                          double hi, double tolerance) {
  PDOS_REQUIRE(lo < hi, "golden_section_max: need lo < hi");
  PDOS_REQUIRE(tolerance > 0.0, "golden_section_max: tolerance must be > 0");
  constexpr double kInvPhi = 0.6180339887498949;  // 1/φ
  double a = lo;
  double b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  while (b - a > tolerance) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    }
  }
  return (a + b) / 2.0;
}

double optimal_gamma_numeric(double cpsi, double kappa, double tolerance) {
  check_cpsi(cpsi);
  PDOS_REQUIRE(kappa >= 0.0, "optimizer: kappa must be >= 0");
  if (kappa == 0.0) return 1.0;
  return golden_section_max(
      [cpsi, kappa](double g) { return attack_gain(g, cpsi, kappa); }, cpsi,
      1.0, tolerance);
}

double optimal_mu_exact(double c_attack, double cpsi, double kappa) {
  PDOS_REQUIRE(c_attack > 0.0, "optimizer: C_attack must be > 0");
  const double gstar = optimal_gamma(cpsi, kappa);
  const double mu = c_attack / gstar - 1.0;
  PDOS_REQUIRE(mu >= 0.0,
               "optimizer: optimal gamma exceeds C_attack "
               "(pulse rate below bottleneck demand; raise R_attack)");
  return mu;
}

double optimal_mu_paper(double c_attack, double cpsi, double kappa) {
  PDOS_REQUIRE(c_attack > 0.0, "optimizer: C_attack must be > 0");
  return c_attack / optimal_gamma(cpsi, kappa);  // Eq. (16) as printed
}

double optimal_mu_risk_neutral_paper(double c_attack, Time textent,
                                     double cvictim) {
  PDOS_REQUIRE(c_attack > 0.0, "optimizer: C_attack must be > 0");
  PDOS_REQUIRE(textent > 0.0, "optimizer: T_extent must be > 0");
  PDOS_REQUIRE(cvictim > 0.0, "optimizer: C_victim must be > 0");
  return std::sqrt(c_attack / (textent * cvictim));  // Eq. (17)
}

double optimal_gain(double cpsi, double kappa) {
  return attack_gain(optimal_gamma(cpsi, kappa), cpsi, kappa);
}

namespace {

/// Shared engine for both search modes. `fluid_inner` = true scores the
/// grid with the fluid surrogate and packet-confirms only the top
/// `confirm_top`; false confirms every point (the reference search).
GammaSearchResult run_gamma_search(const GammaSearch& search,
                                   bool fluid_inner) {
  PDOS_REQUIRE(search.grid_points >= 2,
               "gamma search: need at least 2 grid points");
  PDOS_REQUIRE(search.confirm_top >= 1,
               "gamma search: need confirm_top >= 1");
  PDOS_REQUIRE(search.textent > 0.0 && search.rattack > 0.0,
               "gamma search: pulse shape must be positive");

  // The confirm tier is the packet engine; a surrogate tier handed in by
  // the caller would make "confirm" meaningless.
  ScenarioConfig packet_cfg = search.scenario;
  if (packet_cfg.backend == Backend::kFluid) {
    packet_cfg.backend = Backend::kFull;
  }
  ScenarioConfig fluid_cfg = search.scenario;
  fluid_cfg.backend = Backend::kFluid;

  const double c_attack = search.rattack / packet_cfg.bottleneck;
  const double cpsi =
      c_psi(packet_cfg.victim_profile(), search.textent, c_attack);
  double lo = search.gamma_lo;
  if (lo <= 0.0) lo = std::max(cpsi + 0.02, 0.1);
  const double hi = search.gamma_hi;
  PDOS_REQUIRE(lo < hi && hi < 1.0,
               "gamma search: need gamma_lo < gamma_hi < 1");
  // γ = R_attack·T_extent/(R_bottle·T) <= C_attack at back-to-back pulses.
  PDOS_REQUIRE(hi <= c_attack,
               "gamma search: gamma_hi unreachable at this R_attack");

  GammaSearchResult result;
  ScenarioWorkspace workspace;

  result.baseline_goodput = workspace.baseline(packet_cfg, search.control);
  ++result.packet_runs;
  PDOS_REQUIRE(result.baseline_goodput > 0.0,
               "gamma search: packet baseline produced no goodput");
  FluidGainCache* cache = fluid_inner ? search.fluid_cache : nullptr;
  if (fluid_inner) {
    std::optional<BitRate> fluid_baseline =
        cache ? cache->lookup_baseline(search) : std::nullopt;
    if (!fluid_baseline) {
      fluid_baseline = workspace.baseline(fluid_cfg, search.control);
      ++result.fluid_runs;
      if (cache) cache->store_baseline(search, *fluid_baseline);
    }
    result.fluid_baseline_goodput = *fluid_baseline;
    PDOS_REQUIRE(result.fluid_baseline_goodput > 0.0,
                 "gamma search: fluid baseline produced no goodput");
  }

  // Score the grid on the fluid surrogate: cache hits fill in directly,
  // the misses are solved as lanes of ONE lane-batched fluid evaluation
  // (fluid::solve_batch via fluid_gain_batch) — bit-identical to solving
  // them one at a time, several times faster on SIMD builds.
  result.candidates.resize(static_cast<std::size_t>(search.grid_points));
  std::vector<std::size_t> miss_index;
  std::vector<PulseTrain> miss_trains;
  for (int i = 0; i < search.grid_points; ++i) {
    auto& cand = result.candidates[static_cast<std::size_t>(i)];
    cand.gamma = lo + (hi - lo) * static_cast<double>(i) /
                          static_cast<double>(search.grid_points - 1);
    if (!fluid_inner) continue;
    if (cache) {
      if (const std::optional<double> hit =
              cache->lookup_gain(search, cand.gamma)) {
        cand.fluid_gain = *hit;
        continue;
      }
    }
    miss_index.push_back(static_cast<std::size_t>(i));
    miss_trains.push_back(PulseTrain::from_gamma(search.textent,
                                                 search.rattack, cand.gamma,
                                                 packet_cfg.bottleneck));
  }
  if (!miss_trains.empty()) {
    const std::vector<GainMeasurement> gains =
        fluid_gain_batch(fluid_cfg, miss_trains, search.kappa, search.control,
                         result.fluid_baseline_goodput);
    for (std::size_t k = 0; k < miss_index.size(); ++k) {
      auto& cand = result.candidates[miss_index[k]];
      cand.fluid_gain = gains[k].gain;
      ++result.fluid_runs;
      if (cache) cache->store_gain(search, cand.gamma, cand.fluid_gain);
    }
  }

  // Rank by surrogate score and confirm the head of the ranking on the
  // packet path; packet-only mode confirms everything.
  std::vector<std::size_t> order(result.candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (fluid_inner) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return result.candidates[a].fluid_gain >
                              result.candidates[b].fluid_gain;
                     });
    result.gamma_star_fluid = result.candidates[order.front()].gamma;
  }
  const std::size_t confirm =
      fluid_inner ? std::min(order.size(),
                             static_cast<std::size_t>(search.confirm_top))
                  : order.size();

  double best_gain = -1.0;
  for (std::size_t k = 0; k < confirm; ++k) {
    auto& cand = result.candidates[order[k]];
    const PulseTrain train =
        PulseTrain::from_gamma(search.textent, search.rattack, cand.gamma,
                               packet_cfg.bottleneck);
    const GainMeasurement point =
        workspace.gain(packet_cfg, train, search.kappa, search.control,
                       result.baseline_goodput);
    ++result.packet_runs;
    cand.packet_gain = point.gain;
    cand.confirmed = true;
    if (point.gain > best_gain) {
      best_gain = point.gain;
      result.gamma_star = cand.gamma;
      result.gain = point.gain;
      result.degradation = point.degradation;
    }
  }
  return result;
}

}  // namespace

GammaSearchResult search_confirm_gamma(const GammaSearch& search) {
  return run_gamma_search(search, /*fluid_inner=*/true);
}

GammaSearchResult search_gamma_packet_only(const GammaSearch& search) {
  return run_gamma_search(search, /*fluid_inner=*/false);
}

}  // namespace pdos
