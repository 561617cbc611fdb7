#include "cosmo/params.hpp"

#include <cmath>
#include <sstream>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace plinger::cosmo {

namespace k = plinger::constants;

double CosmoParams::hubble0() const {
  return h / k::hubble_distance_mpc;
}

double CosmoParams::omega_gamma() const {
  const double energy_density = k::a_radiation * std::pow(t_cmb, 4);  // J/m^3
  const double mass_density = energy_density / (k::c_light * k::c_light);
  return mass_density / (k::rho_crit_h2 * h * h);
}

double CosmoParams::omega_nu_massless() const {
  // Each massless species carries (7/8) (4/11)^{4/3} of the photon energy.
  const double per_species =
      (7.0 / 8.0) * std::pow(k::t_nu_over_t_gamma, 4) * omega_gamma();
  return n_eff_massless * per_species;
}

void CosmoParams::close_universe() {
  const double budget = 1.0 - omega_b - omega_lambda - omega_nu -
                        omega_gamma() - omega_nu_massless();
  PLINGER_REQUIRE(budget >= 0.0,
                  "close_universe: omega_b + omega_lambda + omega_nu + "
                  "radiation exceed 1; no room left for omega_c "
                  "(budget = " +
                      std::to_string(budget) + ")");
  omega_c = budget;
}

void CosmoParams::validate() const {
  PLINGER_REQUIRE(h > 0.2 && h < 1.5, "h out of range (0.2, 1.5)");
  PLINGER_REQUIRE(omega_b > 0.0, "omega_b must be positive");
  PLINGER_REQUIRE(omega_c >= 0.0, "omega_c must be non-negative");
  PLINGER_REQUIRE(omega_nu >= 0.0, "omega_nu must be non-negative");
  PLINGER_REQUIRE(n_massive_nu >= 0, "n_massive_nu must be non-negative");
  PLINGER_REQUIRE(omega_nu == 0.0 || n_massive_nu > 0,
                  "omega_nu > 0 requires n_massive_nu > 0");
  PLINGER_REQUIRE(n_massive_nu <= 0 || omega_nu > 0.0,
                  "n_massive_nu > 0 requires omega_nu > 0");
  PLINGER_REQUIRE(t_cmb > 1.0 && t_cmb < 10.0, "t_cmb out of range");
  PLINGER_REQUIRE(y_helium > 0.0 && y_helium < 0.5, "y_helium out of range");
  PLINGER_REQUIRE(n_eff_massless >= 0.0, "n_eff_massless must be >= 0");
  PLINGER_REQUIRE(n_s > 0.0 && n_s < 2.0, "n_s out of range");
  const double total = omega_matter() + omega_lambda + omega_gamma() +
                       omega_nu_massless();
  // The perturbation equations are written for a flat universe; the small
  // radiation contribution is accounted for inside Background, so the
  // *matter + lambda* budget must leave room for it.  We require the user
  // to specify a flat matter+lambda budget and quietly absorb radiation by
  // reducing the cosmological-constant/matter consistency requirement to
  // ~1e-3, matching LINGER usage.
  PLINGER_REQUIRE(std::abs(total - 1.0) < 1e-3,
                  "model must be flat: omega_m + omega_lambda + omega_r = 1"
                  " to within 1e-3");
}

std::string CosmoParams::summary() const {
  std::ostringstream os;
  os << "h=" << h << " Omega_c=" << omega_c << " Omega_b=" << omega_b
     << " Omega_L=" << omega_lambda << " Omega_nu=" << omega_nu
     << " T_cmb=" << t_cmb << "K Y_He=" << y_helium << " n_s=" << n_s
     << " N_massless=" << n_eff_massless << " N_massive=" << n_massive_nu;
  return os.str();
}

CosmoParams CosmoParams::standard_cdm() {
  CosmoParams p;
  p.h = 0.5;
  p.omega_b = 0.05;
  p.omega_lambda = 0.0;
  p.t_cmb = 2.726;
  p.y_helium = 0.24;
  p.n_eff_massless = 3.0;
  p.n_massive_nu = 0;
  p.omega_nu = 0.0;
  p.n_s = 1.0;
  // Flat: CDM absorbs what photons+neutrinos do not contribute.
  p.close_universe();
  return p;
}

CosmoParams CosmoParams::lambda_cdm() {
  CosmoParams p;
  p.h = 0.65;
  p.omega_b = 0.05;
  p.t_cmb = 2.726;
  p.y_helium = 0.24;
  p.n_eff_massless = 3.0;
  p.n_s = 1.0;
  p.omega_c = 0.30;
  p.omega_lambda =
      1.0 - p.omega_c - p.omega_b - p.omega_gamma() - p.omega_nu_massless();
  return p;
}

CosmoParams CosmoParams::mixed_dark_matter() {
  CosmoParams p;
  p.h = 0.5;
  p.omega_b = 0.05;
  p.omega_lambda = 0.0;
  p.t_cmb = 2.726;
  p.y_helium = 0.24;
  p.n_massive_nu = 1;
  p.omega_nu = 0.20;
  p.n_eff_massless = 2.0;
  p.n_s = 1.0;
  p.close_universe();
  return p;
}

}  // namespace plinger::cosmo
