#include "cosmo/nu_density.hpp"

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

namespace pc = plinger::cosmo;

TEST(NuDensity, MasslessLimits) {
  pc::NuDensity nu;
  EXPECT_NEAR(nu.rho_ratio(0.0), 1.0, 1e-12);
  EXPECT_NEAR(nu.rho_ratio(1e-5), 1.0, 1e-9);
  EXPECT_NEAR(nu.p_ratio(1e-5), 1.0, 1e-9);
}

TEST(NuDensity, RelativisticEquationOfState) {
  pc::NuDensity nu;
  // While relativistic, p = rho/3 so p_ratio ~ rho_ratio.
  for (double xi : {1e-3, 1e-2, 0.1}) {
    EXPECT_NEAR(nu.p_ratio(xi) / nu.rho_ratio(xi), 1.0, 0.01) << xi;
  }
}

TEST(NuDensity, NonRelativisticScaling) {
  pc::NuDensity nu;
  // rho ~ m n: rho_ratio grows linearly in xi.
  const double r1 = nu.rho_ratio(1e4);
  const double r2 = nu.rho_ratio(2e4);
  EXPECT_NEAR(r2 / r1, 2.0, 1e-3);
  // Pressure becomes negligible: w -> 0.
  const double w =
      nu.p_ratio(1e4) / (3.0 * nu.rho_ratio(1e4)) * 1.0;  // p/(3rho)*3=w*3...
  EXPECT_LT(nu.p_ratio(1e4) / nu.rho_ratio(1e4), 1e-3);
  (void)w;
}

TEST(NuDensity, RhoRatioIsMonotonic) {
  pc::NuDensity nu;
  double prev = 0.0;
  for (double lx = -4.0; lx < 6.0; lx += 0.25) {
    const double r = nu.rho_ratio(std::pow(10.0, lx));
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(NuDensity, TableMatchesDirectIntegralMidrange) {
  pc::NuDensity nu;
  // Direct 200-point integration at xi = 7.3.
  const double xi = 7.3;
  double i_rho = 0.0;
  const double dq = 0.01;
  for (int i = 0; i < 5000; ++i) {
    const double q = (i + 0.5) * dq;
    i_rho += dq * q * q * std::sqrt(q * q + xi * xi) / (std::exp(q) + 1.0);
  }
  const double i0 = 7.0 * std::pow(std::numbers::pi, 4) / 120.0;
  EXPECT_NEAR(nu.rho_ratio(xi), i_rho / i0, 1e-5);
}

TEST(NuDensity, QGridNormalization) {
  pc::NuDensity nu;
  EXPECT_EQ(nu.q_grid().size(), pc::NuDensity::kQNodes);
  // grid_norm = int q^3 f0 dq = 7 pi^4/120.
  EXPECT_NEAR(nu.grid_norm_massless(),
              7.0 * std::pow(std::numbers::pi, 4) / 120.0, 1e-6);
  // Number integral: sum w_i = int q^2 f0 = (3/2) zeta(3).
  double num = 0.0;
  for (const auto& p : nu.q_grid()) num += p.weight;
  EXPECT_NEAR(num, 1.5 * 1.2020569031595943, 1e-6);
}

TEST(NuDensity, DlnF0Values) {
  pc::NuDensity nu;
  for (const auto& p : nu.q_grid()) {
    EXPECT_NEAR(p.dlnf0dlnq, -p.q / (1.0 + std::exp(-p.q)), 1e-12);
    EXPECT_LT(p.dlnf0dlnq, 0.0);
  }
  // Average of -dlnf0/dlnq weighted by q^3 f0 is 4 (massless consistency).
  double num = 0.0, den = 0.0;
  for (const auto& p : nu.q_grid()) {
    num += p.weight * p.q * (-p.dlnf0dlnq);
    den += p.weight * p.q;
  }
  EXPECT_NEAR(num / den, 4.0, 1e-4);
}

TEST(NuDensity, XiForOmegaRoundTrips) {
  pc::NuDensity nu;
  const double omega_gamma = 9.9e-5;  // h = 0.5-ish value
  const double massless =
      (7.0 / 8.0) * std::pow(4.0 / 11.0, 4.0 / 3.0) * omega_gamma;
  for (double target : {0.05, 0.2, 0.4}) {
    const double xi0 = nu.xi0_for_omega(target, omega_gamma);
    EXPECT_NEAR(massless * nu.rho_ratio(xi0), target, 1e-8 * target);
  }
}

TEST(NuDensity, DrhoRatioMatchesFiniteDifference) {
  pc::NuDensity nu;
  for (double xi : {0.01, 1.0, 50.0, 1e4}) {
    const double h = 1e-4 * xi;
    const double fd = (nu.rho_ratio(xi + h) - nu.rho_ratio(xi - h)) / (2 * h);
    EXPECT_NEAR(nu.drho_ratio_dxi(xi), fd, 2e-3 * std::abs(fd) + 1e-12)
        << xi;
  }
}
