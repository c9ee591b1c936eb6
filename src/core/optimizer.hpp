// Closed-form and numerical solutions of the PDoS attack optimization
// problem (paper §3.1-§3.2):
//
//     maximize  G(γ) = (1 − C_Ψ/γ)(1 − γ)^κ   subject to  C_Ψ < γ < 1.
//
// Proposition 3 gives γ* in closed form; Corollaries 1-3 cover the three
// risk classes; Proposition 4 / Corollary 4 translate γ* into the pulse
// spacing via μ = T_space/T_extent. A golden-section maximizer is provided
// to cross-validate the closed form and to optimize variants the paper
// leaves analytical (e.g. adding measured shrew boosts).
// The empirical layer (`search_confirm_gamma`) goes beyond the closed form:
// it maximizes the *measured* gain over a γ grid with a two-tier
// search-then-confirm loop — the fluid surrogate (src/fluid, microseconds
// per point) scores every grid point, then only the top-ranked candidates
// are re-measured on the packet path (tens of milliseconds per point) and
// the confirmed winner is returned. `search_gamma_packet_only` runs the
// same grid entirely at packet level; the regression test in
// tests/core/optimizer_search_test.cpp pins that both return the same γ*.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/experiment.hpp"
#include "core/params.hpp"
#include "util/units.hpp"

namespace pdos {

/// Eq. (13), Proposition 3 — evaluated in the algebraically equivalent form
///   γ* = 2 C_Ψ / ( sqrt(C_Ψ²(1−κ)² + 4κC_Ψ) + C_Ψ(1−κ) ),
/// which is numerically stable for κ → 0 (where the printed form is 0/0)
/// and reproduces Corollaries 1-3 in the limits. κ = 0 returns 1, the
/// risk-ignoring flooding limit.
double optimal_gamma(double cpsi, double kappa);

/// Corollary 3 special case, γ* = sqrt(C_Ψ) for the risk-neutral attacker.
double optimal_gamma_risk_neutral(double cpsi);

/// Golden-section maximization of G over (C_Ψ, 1); used to cross-check the
/// closed form and exposed for custom objectives.
double optimal_gamma_numeric(double cpsi, double kappa,
                             double tolerance = 1e-9);

/// Maximize an arbitrary unimodal objective on (lo, hi) by golden section.
double golden_section_max(const std::function<double(double)>& f, double lo,
                          double hi, double tolerance = 1e-9);

/// Proposition 4: optimal duty-cycle reciprocal. The paper prints
/// μ = C_attack/γ* (Eq. 16); since 1 + μ = C_attack/γ (Eq. 7) the exact
/// value is C_attack/γ* − 1. Both are provided; they agree as μ → ∞.
double optimal_mu_exact(double c_attack, double cpsi, double kappa);
double optimal_mu_paper(double c_attack, double cpsi, double kappa);

/// Corollary 4: risk-neutral μ via C_victim, μ = sqrt(C_attack /
/// (T_extent·C_victim)) (paper's approximation, no −1).
double optimal_mu_risk_neutral_paper(double c_attack, Time textent,
                                     double cvictim);

/// Gain achieved at the optimum, G(γ*).
double optimal_gain(double cpsi, double kappa);

// --- Empirical search-then-confirm (DESIGN.md §12, §16) -----------------

struct GammaSearch;

/// Cache hook for the fluid phase of `search_confirm_gamma`: lets callers
/// keep surrogate gains and baselines across searches so a resumed search
/// skips already-solved γ lanes, or observe each lookup and store (the
/// benchmark's phase clock times the search's phases at these calls). The optimizer consults the cache before solving, batches only the
/// misses through the lane-batched fluid tier, and stores what it solved.
/// Key derivation is the implementation's business — the optimizer hands
/// over exactly the (search, γ) pair it would otherwise evaluate. Because
/// batched fluid results are bit-identical to point-at-a-time ones
/// (DESIGN.md §16), a hit is indistinguishable from a re-solve; `fluid_runs`
/// in the result counts only actual solves, so a fully warmed cache yields
/// fluid_runs == 0.
class FluidGainCache {
 public:
  virtual ~FluidGainCache() = default;
  /// Cached fluid baseline goodput for this search's scenario, or nullopt.
  virtual std::optional<BitRate> lookup_baseline(const GammaSearch& search) = 0;
  virtual void store_baseline(const GammaSearch& search, BitRate baseline) = 0;
  /// Cached surrogate gain G at γ, or nullopt on a miss.
  virtual std::optional<double> lookup_gain(const GammaSearch& search,
                                            double gamma) = 0;
  virtual void store_gain(const GammaSearch& search, double gamma,
                          double gain) = 0;
};

/// One empirical γ* search: fix the pulse shape (T_extent, R_attack) and
/// scan γ — i.e. T_space via Eq. (7) — over a grid, maximizing measured
/// gain G = Γ(1−γ)^κ.
struct GammaSearch {
  ScenarioConfig scenario;   // `scenario.backend` selects the confirm tier
                             // (kFluid is coerced to kFull)
  Time textent = ms(50);
  BitRate rattack = mbps(25);
  double kappa = 1.0;
  RunControl control;
  int grid_points = 9;       // evenly spaced γ grid in [gamma_lo, gamma_hi]
  int confirm_top = 3;       // fluid-ranked candidates re-run at packet level
  double gamma_lo = 0.0;     // <= 0: auto, max(C_Ψ + 0.02, 0.1)
  double gamma_hi = 0.95;
  /// Optional fluid-gain cache (non-owning; see FluidGainCache above).
  /// Null runs every fluid point, matching the pre-cache behaviour.
  FluidGainCache* fluid_cache = nullptr;
};

struct GammaCandidate {
  double gamma = 0.0;
  double fluid_gain = 0.0;   // surrogate score (0 in packet-only searches)
  double packet_gain = 0.0;  // measured gain, valid when `confirmed`
  bool confirmed = false;    // re-measured on the packet path
};

struct GammaSearchResult {
  double gamma_star = 0.0;        // argmax of confirmed packet gain
  double gain = 0.0;              // packet-measured G at gamma_star
  double degradation = 0.0;       // packet-measured Γ at gamma_star
  double gamma_star_fluid = 0.0;  // argmax of the fluid surrogate alone
  BitRate baseline_goodput = 0.0;
  BitRate fluid_baseline_goodput = 0.0;
  int fluid_runs = 0;   // fluid evaluations (incl. the fluid baseline)
  int packet_runs = 0;  // packet evaluations (incl. the packet baseline)
  std::vector<GammaCandidate> candidates;  // ascending γ
};

/// Two-tier search: score the whole grid on the fluid surrogate, confirm
/// the `confirm_top` best candidates on the packet path, return the
/// confirmed winner.
GammaSearchResult search_confirm_gamma(const GammaSearch& search);

/// Reference search: every grid point measured on the packet path (the
/// fluid tier is never consulted). Same grid, same ranking rule.
GammaSearchResult search_gamma_packet_only(const GammaSearch& search);

}  // namespace pdos
