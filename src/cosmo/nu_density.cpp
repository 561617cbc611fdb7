#include "cosmo/nu_density.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "math/brent.hpp"
#include "math/quadrature.hpp"

namespace plinger::cosmo {

namespace {
constexpr double kZeta3 = 1.2020569031595943;

/// Resolution of the log(xi) spline tables of I_rho and I_p.
constexpr std::size_t kTableSize = 256;

/// \int q^2 f0 dq = (3/2) zeta(3).
double number_integral() { return 1.5 * kZeta3; }
}  // namespace

double NuDensity::i_rho_massless() {
  const double pi4 = std::pow(std::numbers::pi, 4);
  return 7.0 * pi4 / 120.0;
}

NuDensity::NuDensity() {
  // High-accuracy rule for the background tables, independent of the
  // perturbation grid.
  const auto rule = plinger::math::gauss_laguerre(64);

  auto integrals = [&rule](double xi, double& i_rho, double& i_p) {
    i_rho = 0.0;
    i_p = 0.0;
    for (std::size_t i = 0; i < rule.nodes.size(); ++i) {
      const double q = rule.nodes[i];
      // gauss_laguerre weights absorb e^{-q}; restore f0 = 1/(e^q+1)
      // via f0 e^q = 1/(1+e^{-q}).
      const double w = rule.weights[i] * q * q / (1.0 + std::exp(-q));
      const double eps = std::sqrt(q * q + xi * xi);
      i_rho += w * eps;
      i_p += w * q * q / (3.0 * eps);
    }
  };

  xi_min_ = 1e-4;
  xi_max_ = 1e7;
  const auto log_xi = plinger::math::linspace(std::log(xi_min_),
                                              std::log(xi_max_),
                                              kTableSize);
  std::vector<double> log_rho(kTableSize), log_p(kTableSize);
  for (std::size_t i = 0; i < kTableSize; ++i) {
    double i_rho = 0.0, i_p = 0.0;
    integrals(std::exp(log_xi[i]), i_rho, i_p);
    log_rho[i] = std::log(i_rho);
    log_p[i] = std::log(i_p);
  }
  log_rho_ = plinger::math::CubicSpline(log_xi, log_rho);
  log_p_ = plinger::math::CubicSpline(log_xi, log_p);

  // Perturbation q-grid.
  const auto pert = plinger::math::gauss_laguerre(kQNodes);
  q_grid_.resize(kQNodes);
  grid_norm_ = 0.0;
  for (std::size_t i = 0; i < kQNodes; ++i) {
    const double q = pert.nodes[i];
    NuQuadPoint pt;
    pt.q = q;
    pt.weight = pert.weights[i] * q * q / (1.0 + std::exp(-q));
    pt.dlnf0dlnq = -q / (1.0 + std::exp(-q));
    q_grid_[i] = pt;
    grid_norm_ += pt.weight * q;
  }
}

double NuDensity::rho_ratio(double xi) const {
  PLINGER_REQUIRE(xi >= 0.0, "NuDensity: xi must be >= 0");
  if (xi <= xi_min_) {
    // Relativistic: I_rho ~ I_rho(0) + xi^2/2 \int q f0 = I(0) + xi^2 pi^2/24.
    const double pi2 = std::numbers::pi * std::numbers::pi;
    return 1.0 + (xi * xi * pi2 / 24.0) / i_rho_massless();
  }
  if (xi >= xi_max_) {
    // Non-relativistic: I_rho ~ xi * (3/2) zeta(3) + O(1/xi).
    return xi * number_integral() / i_rho_massless();
  }
  return std::exp(log_rho_(std::log(xi))) / i_rho_massless();
}

double NuDensity::p_ratio(double xi) const {
  PLINGER_REQUIRE(xi >= 0.0, "NuDensity: xi must be >= 0");
  const double i_p0 = i_rho_massless() / 3.0;
  if (xi <= xi_min_) {
    const double pi2 = std::numbers::pi * std::numbers::pi;
    // I_p ~ I_p(0) - xi^2/6 \int q f0 = I_p(0) - xi^2 pi^2/72.
    return 1.0 - (xi * xi * pi2 / 72.0) / i_p0;
  }
  if (xi >= xi_max_) {
    // p ~ rho <q^2>/(3 xi^2): vanishes as 1/xi.
    return std::exp(log_p_(std::log(xi_max_))) / i_p0 * (xi_max_ / xi);
  }
  return std::exp(log_p_(std::log(xi))) / i_p0;
}

double NuDensity::drho_ratio_dxi(double xi) const {
  if (xi <= xi_min_) {
    const double pi2 = std::numbers::pi * std::numbers::pi;
    return 2.0 * xi * pi2 / 24.0 / i_rho_massless();
  }
  if (xi >= xi_max_) {
    return number_integral() / i_rho_massless();
  }
  const double lx = std::log(xi);
  // d/dxi exp(log_rho(log xi)) = I_rho/xi * dlogI/dlogxi.
  return std::exp(log_rho_(lx)) / xi * log_rho_.derivative(lx) /
         i_rho_massless();
}

double NuDensity::xi0_for_omega(double omega_nu_per_species,
                                double omega_gamma) const {
  PLINGER_REQUIRE(omega_nu_per_species > 0.0,
                  "xi0_for_omega: omega must be positive");
  // One massless species contributes (7/8)(4/11)^{4/3} omega_gamma; the
  // massive species contributes that times rho_ratio(xi0).
  const double massless =
      (7.0 / 8.0) * std::pow(4.0 / 11.0, 4.0 / 3.0) * omega_gamma;
  const double target = omega_nu_per_species / massless;
  PLINGER_REQUIRE(target > 1.0,
                  "omega_nu below the massless floor: no solution for m");
  const double log_xi0 = plinger::math::brent_root(
      [this, target](double log_xi) {
        return rho_ratio(std::exp(log_xi)) - target;
      },
      std::log(1e-6), std::log(1e6), 1e-12);
  return std::exp(log_xi0);
}

}  // namespace plinger::cosmo
