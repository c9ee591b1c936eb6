// §3.2 companion table: the optimal attack settings across the attacker-
// preference space. For a grid of (C_Psi, kappa) it prints the closed-form
// gamma* (Eq. 13), the numerically maximized gamma (golden section), the
// optimal gain, and the pulse spacing mu (exact and the paper's Eq. 16
// approximation), verifying Corollaries 1-4 at the grid edges.
//
// The grid is evaluated in the sweep subsystem's parallel loop: each
// (C_Psi, kappa) cell is independent, results land in preallocated slots,
// and rows print in grid order — output is identical at any thread count.
#include <cstdio>
#include <vector>

#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "sweep/parallel_for.hpp"
#include "util/units.hpp"

using namespace pdos;

namespace {

struct SurfaceRow {
  double cpsi = 0.0;
  double kappa = 0.0;
  double gamma_closed = 0.0;
  double gamma_numeric = 0.0;
  double gain = 0.0;
  double mu_exact = -1.0;
  double mu_paper = 0.0;
};

}  // namespace

int main() {
  std::printf("# Optimal attack surface: gamma*, G*, mu over (C_psi, kappa)"
              "\n");
  std::printf("# C_attack = 25/15 (ns-2 scenario pulse rate over "
              "bottleneck)\n");
  const double c_attack = 25.0 / 15.0;
  const std::vector<double> cpsis = {0.05, 0.1, 0.2, 0.3, 0.5, 0.7};
  const std::vector<double> kappas = {0.1, 0.5, 1.0, 2.0, 5.0, 20.0};

  std::vector<SurfaceRow> rows(cpsis.size() * kappas.size());
  sweep::parallel_for(0, rows.size(), [&](std::size_t i, std::size_t) {
    SurfaceRow& row = rows[i];
    row.cpsi = cpsis[i / kappas.size()];
    row.kappa = kappas[i % kappas.size()];
    row.gamma_closed = optimal_gamma(row.cpsi, row.kappa);
    row.gamma_numeric = optimal_gamma_numeric(row.cpsi, row.kappa);
    row.gain = optimal_gain(row.cpsi, row.kappa);
    if (row.gamma_closed <= c_attack) {
      row.mu_exact = optimal_mu_exact(c_attack, row.cpsi, row.kappa);
    }
    row.mu_paper = optimal_mu_paper(c_attack, row.cpsi, row.kappa);
  });

  std::printf("%8s %8s %12s %12s %12s %10s %10s\n", "C_psi", "kappa",
              "gamma*_eq13", "gamma*_num", "G*", "mu_exact", "mu_eq16");
  for (const SurfaceRow& row : rows) {
    std::printf("%8.2f %8.1f %12.6f %12.6f %12.6f %10.4f %10.4f\n", row.cpsi,
                row.kappa, row.gamma_closed, row.gamma_numeric, row.gain,
                row.mu_exact, row.mu_paper);
  }
  std::printf("\n# corollary checks\n");
  const double cpsi = 0.2;
  std::printf("kappa=1    : gamma* = %.6f, sqrt(C_psi) = %.6f (Cor. 3)\n",
              optimal_gamma(cpsi, 1.0), optimal_gamma_risk_neutral(cpsi));
  std::printf("kappa=1e9  : gamma* = %.6f -> C_psi = %.6f (Cor. 1)\n",
              optimal_gamma(cpsi, 1e9), cpsi);
  std::printf("kappa=1e-9 : gamma* = %.6f -> 1 (Cor. 2)\n",
              optimal_gamma(cpsi, 1e-9));
  std::printf("Cor. 4     : mu = sqrt(C_attack/(T_extent*C_victim)) = %.4f "
              "vs Eq. 16 at kappa=1: %.4f\n",
              optimal_mu_risk_neutral_paper(c_attack, ms(50),
                                            cpsi / (ms(50) * c_attack)),
              optimal_mu_paper(c_attack, cpsi, 1.0));
  return 0;
}
