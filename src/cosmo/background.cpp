#include "cosmo/background.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "math/brent.hpp"
#include "math/quadrature.hpp"

namespace plinger::cosmo {

namespace k = plinger::constants;

Background::Background(const CosmoParams& params) : params_(params) {
  params_.validate();

  const double h0 = params_.hubble0();       // Mpc^-1
  grhom_ = 3.0 * h0 * h0;                    // 3 H0^2
  grho_c0_ = grhom_ * params_.omega_c;
  grho_b0_ = grhom_ * params_.omega_b;
  grho_g0_ = grhom_ * params_.omega_gamma();
  grho_nu_ml0_ = grhom_ * params_.omega_nu_massless();
  grho_nu_rel_one_ = grhom_ * (7.0 / 8.0) *
                     std::pow(k::t_nu_over_t_gamma, 4) *
                     params_.omega_gamma();
  grho_v0_ = grhom_ * params_.omega_lambda;

  if (params_.has_massive_nu()) {
    nu_ = std::make_shared<const NuDensity>();
    const double omega_per =
        params_.omega_nu / static_cast<double>(params_.n_massive_nu);
    xi0_ = nu_->xi0_for_omega(omega_per, params_.omega_gamma());
    const double t_nu0 = params_.t_cmb * k::t_nu_over_t_gamma;
    nu_mass_ev_ = xi0_ * k::k_boltzmann * t_nu0 / k::eV;
  }

  // ---- tau(a) table: integrate dtau/da = 1/(a^2 H) = 1/(a * adotoa).
  // In the radiation era a ~ tau, so tau(a_min) is given analytically by
  // tau = a / (H0 sqrt(Omega_r,total)) with relativistic neutrinos.
  const double a_min = 1e-10;
  const std::size_t n_pts = 1024;
  auto lna = plinger::math::linspace(std::log(a_min), 0.0, n_pts);

  // Relativistic total at a_min (massive species are ultra-relativistic
  // there because xi(a_min) << 1).
  const double grho_rel0 =
      grho_g0_ + grho_nu_ml0_ +
      (nu_ ? grho_nu_rel_one_ * static_cast<double>(params_.n_massive_nu) *
                 nu_->rho_ratio(nu_xi(a_min))
           : 0.0);
  std::vector<double> tau(n_pts);
  tau[0] = a_min / std::sqrt(grho_rel0 / 3.0);

  // Cumulative Gauss-Legendre integration of dtau/da per table interval.
  const auto rule = plinger::math::gauss_legendre(8);
  for (std::size_t i = 1; i < n_pts; ++i) {
    const double a0 = std::exp(lna[i - 1]);
    const double a1 = std::exp(lna[i]);
    double acc = 0.0;
    for (std::size_t j = 0; j < rule.nodes.size(); ++j) {
      const double a =
          0.5 * (a0 + a1) + 0.5 * (a1 - a0) * rule.nodes[j];
      acc += 0.5 * (a1 - a0) * rule.weights[j] / (a * adotoa(a));
    }
    tau[i] = tau[i - 1] + acc;
  }
  tau_of_lna_ = plinger::math::CubicSpline(lna, tau);
  lna_of_tau_ = plinger::math::CubicSpline(tau, lna);
  conformal_age_ = tau.back();

  // Matter-radiation equality (massive neutrinos counted as radiation: at
  // equality they are still relativistic for any realistic mass).
  const double grho_m0 = grho_c0_ + grho_b0_ + grhom_ * params_.omega_nu;
  const double grho_r0 = grho_g0_ + grho_nu_ml0_ +
                         (nu_ ? grho_nu_rel_one_ *
                                    static_cast<double>(params_.n_massive_nu)
                              : 0.0);
  a_eq_ = grho_r0 / grho_m0;
}

GrhoComponents Background::grho(double a) const {
  PLINGER_REQUIRE(a > 0.0, "Background: a must be positive");
  GrhoComponents g;
  g.cdm = grho_c0_ / a;
  g.baryon = grho_b0_ / a;
  g.photon = grho_g0_ / (a * a);
  g.nu_massless = grho_nu_ml0_ / (a * a);
  if (nu_) {
    g.nu_massive = grho_nu_rel_one_ *
                   static_cast<double>(params_.n_massive_nu) / (a * a) *
                   nu_->rho_ratio(nu_xi(a));
  }
  g.lambda = grho_v0_ * a * a;
  return g;
}

double Background::gpres_of(const GrhoComponents& g, double a) const {
  double p = (g.photon + g.nu_massless) / 3.0 - g.lambda;
  if (nu_) {
    // p/rho for the massive species: (p_ratio/3) / rho_ratio relative to
    // the relativistic w = 1/3.
    const double xi = nu_xi(a);
    p += g.nu_massive / 3.0 * nu_->p_ratio(xi) / nu_->rho_ratio(xi);
  }
  return p;
}

double Background::gpres(double a) const { return gpres_of(grho(a), a); }

double Background::adotoa(double a) const {
  return std::sqrt(grho(a).total() / 3.0);
}

double Background::adotdota_over_a(double a) const {
  const GrhoComponents g = grho(a);
  return (g.total() - 3.0 * gpres_of(g, a)) / 6.0;
}

double Background::tau_of_a(double a) const {
  PLINGER_REQUIRE(a > 0.0 && a <= 1.0 + 1e-12,
                  "tau_of_a: a out of table range");
  return tau_of_lna_(std::log(a));
}

double Background::a_of_tau(double tau) const {
  return std::exp(lna_of_tau(tau));
}

double Background::lna_of_tau(double tau) const {
  PLINGER_REQUIRE(tau > 0.0, "a_of_tau: tau must be positive");
  return lna_of_tau_(tau);
}

}  // namespace plinger::cosmo
