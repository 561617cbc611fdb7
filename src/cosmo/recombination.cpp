#include "cosmo/recombination.hpp"

#include <cmath>
#include <numbers>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "math/ode.hpp"

namespace plinger::cosmo {

namespace k = plinger::constants;

namespace {

/// T_b is held on its quasi-static value while the Compton rate is at
/// least this many times H (see the Recombination constructor).
constexpr double kTightCompton = 1e5;

/// Saha factor S(T, E) = (2 pi m_e k T / h^2)^{3/2} e^{-E/kT} in m^-3.
/// Returns 0 on deep underflow.
double saha_factor(double t_kelvin, double e_ion_joule) {
  const double x = e_ion_joule / (k::k_boltzmann * t_kelvin);
  if (x > 680.0) return 0.0;
  const double pre = 2.0 * std::numbers::pi * k::m_electron *
                     k::k_boltzmann * t_kelvin /
                     (k::h_planck * k::h_planck);
  return std::pow(pre, 1.5) * std::exp(-x);
}

/// RECFAST case-B hydrogen recombination coefficient (m^3/s), including
/// the multilevel fudge factor.
double alpha_b(double t_kelvin) {
  const double t4 = t_kelvin / 1e4;
  return Recombination::kFudge * 1e-19 * 4.309 * std::pow(t4, -0.6166) /
         (1.0 + 0.6703 * std::pow(t4, 0.5300));
}

/// Photoionization rate from n=2, beta = alpha (2 pi m_e k T/h^2)^{3/2}
/// e^{-E_2/kT} (s^-1).
double beta_b(double t_kelvin) {
  return alpha_b(t_kelvin) * saha_factor(t_kelvin, k::E_ion_H_n2);
}

}  // namespace

Recombination::Recombination(const Background& bg)
    : Recombination(bg, Options{}) {}

Recombination::Recombination(const Background& bg, const Options& opts)
    : bg_(bg), opts_(opts) {
  const CosmoParams& p = bg.params();
  const double y = p.y_helium;
  f_he_ = y / (4.0 * (1.0 - y));
  n_h0_ = (1.0 - y) * p.omega_b * k::rho_crit_h2 * p.h * p.h / k::m_hydrogen;

  constexpr std::size_t n = kNPoints;
  auto lna = plinger::math::linspace(std::log(kAStart), 0.0, n);

  auto t_gamma = [&](double a) { return p.t_cmb / a; };
  auto n_h = [&](double a) { return n_h0_ / (a * a * a); };

  // Saha equilibrium x_e (fixed-point over the coupled H/He stages).
  auto saha_xe = [&](double a, double& x_h_out) {
    const double t = t_gamma(a);
    const double nh = n_h(a);
    const double r_h = saha_factor(t, k::E_ion_H) / nh;
    const double r_he1 = 4.0 * saha_factor(t, k::E_ion_HeI) / nh;
    const double r_he2 = saha_factor(t, k::E_ion_HeII) / nh;
    double xe = 1.0 + 2.0 * f_he_;
    double xh = 1.0;
    for (int it = 0; it < 60; ++it) {
      xh = (r_h > 0.0) ? r_h / (xe + r_h) : 0.0;
      double y2 = 0.0, y3 = 0.0;
      if (r_he1 > 0.0) {
        y2 = 1.0 / (1.0 + xe / r_he1 + ((r_he2 > 0.0) ? r_he2 / xe : 0.0));
        y3 = (r_he2 > 0.0) ? y2 * r_he2 / xe : 0.0;
      }
      const double xe_new = xh + f_he_ * (y2 + 2.0 * y3);
      if (std::abs(xe_new - xe) < 1e-14) {
        xe = xe_new;
        break;
      }
      xe = 0.5 * (xe + xe_new);
    }
    x_h_out = xh;
    return xe;
  };

  std::vector<double> xe(n), tb(n);
  std::size_t i_switch = n;  // first index evolved by the ODE
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::exp(lna[i]);
    double xh = 1.0;
    xe[i] = saha_xe(a, xh);
    tb[i] = t_gamma(a);
    if (xh < kSahaExitXh) {
      i_switch = i;
      break;
    }
  }
  PLINGER_REQUIRE(i_switch < n, "recombination: Saha exit never reached");

  // Rates of the Peebles + matter-temperature system at ln a for a
  // given x_H, shared by its one- and two-component forms.
  struct Rates {
    double h;        // Hubble rate (s^-1)
    double t_r;      // radiation temperature (K)
    double nh;       // hydrogen nucleus density (m^-3)
    double x_e;      // free electrons per hydrogen nucleus
    double compton;  // Compton coupling rate of T_b to T_r (s^-1)
  };
  auto rates = [&](double lna_t, double x_h) {
    const double a = std::exp(lna_t);
    const double t_r = t_gamma(a);
    const double nh = n_h(a);
    // Residual He+ from Saha (tiny in the ODE regime, vanishes quickly):
    // y2 with x_e ~ x_h + f y2 (a single iteration is ample here).
    const double r_he1 = 4.0 * saha_factor(t_r, k::E_ion_HeI) / nh;
    double x_he = 0.0;
    if (r_he1 > 0.0) {
      const double y2 = 1.0 / (1.0 + std::max(x_h, 1e-6) / r_he1);
      x_he = f_he_ * y2;
    }
    const double x_e = std::clamp(x_h, 0.0, 1.0) + x_he;
    return Rates{
        .h = bg_.adotoa(a) / a * k::c_light / k::mpc_in_m,
        .t_r = t_r,
        .nh = nh,
        .x_e = x_e,
        .compton = (8.0 / 3.0) * k::sigma_thomson * k::a_radiation *
                   std::pow(t_r, 4) / (k::m_electron * k::c_light) * x_e /
                   (1.0 + f_he_ + x_e)};
  };

  // Peebles: net photoionization from n=2 minus case-B recombination,
  // d x_H / d ln a = (1/H) d x_H / dt, at baryon temperature t_b.
  auto dxh_dlna = [&](const Rates& r, double x_h, double t_b) {
    const double lam_alpha3 = std::pow(k::lambda_lyman_alpha, 3);
    const double kk = lam_alpha3 / (8.0 * std::numbers::pi * r.h);
    const double n_1s = (1.0 - x_h) * r.nh;
    const double beta = beta_b(t_b);
    const double c_p = (1.0 + kk * k::lambda_2s1s * n_1s) /
                       (1.0 + kk * (k::lambda_2s1s + beta) * n_1s);
    const double boltz = std::exp(
        -std::min(680.0, k::E_lyman_alpha / (k::k_boltzmann * t_b)));
    return c_p *
           (beta * (1.0 - x_h) * boltz -
            alpha_b(t_b) * r.nh * r.x_e * x_h) /
           r.h;
  };

  // While R = compton / H is large, T_b follows T_r to O(1/R):
  // dT_b/dln a = -2 T_b + R (T_r - T_b) with T_b ~ 1/a gives
  // T_b = T_r R / (R + 1), off the exact solution by O(1/R^2).
  auto t_quasi_static = [](const Rates& r) {
    const double big_r = r.compton / r.h;
    return r.t_r * big_r / (big_r + 1.0);
  };

  // Tight epoch, y = [x_H] with T_b quasi-static; after it y = [x_H, T_b].
  // Independent variable ln a.
  auto rhs_tight = [&](double lna_t, std::span<const double> yy,
                       std::span<double> dy) {
    const double x_h = std::clamp(yy[0], 0.0, 1.0);
    const Rates r = rates(lna_t, x_h);
    dy[0] = dxh_dlna(r, x_h, t_quasi_static(r));
  };
  auto rhs = [&](double lna_t, std::span<const double> yy,
                 std::span<double> dy) {
    const double x_h = std::clamp(yy[0], 0.0, 1.0);
    const double t_b = std::max(1e-10, yy[1]);
    const Rates r = rates(lna_t, x_h);
    dy[0] = dxh_dlna(r, x_h, t_b);
    dy[1] = (-2.0 * r.h * t_b + r.compton * (r.t_r - t_b)) / r.h;
  };

  plinger::math::Dverk integrator;
  plinger::math::OdeOptions ode_opts;
  ode_opts.rtol = 1e-8;
  ode_opts.atol = 1e-12;

  // Start the ODE from pure-hydrogen Saha at the switch point (He is
  // essentially neutral there).
  std::vector<double> state(1);
  (void)saha_xe(std::exp(lna[i_switch]), state[0]);
  bool tight = true;
  for (std::size_t i = i_switch; i + 1 < n; ++i) {
    if (tight) {
      const Rates r = rates(lna[i], state[0]);
      if (r.compton < kTightCompton * r.h) {
        tight = false;
        state.push_back(tb[i]);
      }
    }
    // The first trial step spans the whole leg, computed as the guard
    // computes what is left of it, so an accepted step lands on lna[i + 1]
    // exactly.
    ode_opts.h_init = lna[i + 1] - lna[i];
    ode_stats_ += tight ? integrator.integrate(rhs_tight, lna[i], lna[i + 1],
                                               state, ode_opts)
                        : integrator.integrate(rhs, lna[i], lna[i + 1], state,
                                               ode_opts);
    const Rates r = rates(lna[i + 1], state[0]);
    xe[i + 1] = r.x_e;
    tb[i + 1] = tight ? t_quasi_static(r) : state[1];
  }

  // Optional reionization: raise x_e back to fully-ionized hydrogen plus
  // singly-ionized helium below z_reion.
  if (opts.z_reion > 0.0) {
    const double xe_target = 1.0 + f_he_;
    for (std::size_t i = 0; i < n; ++i) {
      const double z = 1.0 / std::exp(lna[i]) - 1.0;
      const double f =
          0.5 * (1.0 + std::tanh((opts.z_reion - z) / kDzReion));
      xe[i] = xe[i] + (xe_target - xe[i]) * f;
    }
  }

  // Splines are built over log(values): everything tabulated is a
  // positive power law of a outside the recombination era, so log-space
  // linear extrapolation continues the tables *exactly* beyond both ends
  // (the deep radiation era in particular, where modes with very large k
  // start before the table).
  std::vector<double> log_buf(n);
  auto log_spline = [&](const std::vector<double>& v) {
    for (std::size_t i = 0; i < n; ++i) {
      log_buf[i] = std::log(std::max(v[i], 1e-300));
    }
    return plinger::math::CubicSpline(lna, log_buf);
  };
  xe_of_lna_ = log_spline(xe);
  tb_of_lna_ = log_spline(tb);

  // Baryon sound speed squared.
  std::vector<double> cs2(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mu = 1.0 / ((1.0 - y) * (1.0 + xe[i]) + y / 4.0);
    const double dlntb = tb_of_lna_.derivative(lna[i]);
    cs2[i] = k::k_boltzmann * tb[i] /
             (mu * k::m_hydrogen * k::c_light * k::c_light) *
             (1.0 - dlntb / 3.0);
  }
  cs2_of_lna_ = log_spline(cs2);

  // Thomson opacity (Mpc^-1).
  std::vector<double> opac(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::exp(lna[i]);
    opac[i] = xe[i] * n_h0_ * k::sigma_thomson * k::mpc_in_m / (a * a);
  }
  opac_of_lna_ = log_spline(opac);

  // kappa(tau) and the sound horizon on a tau grid.
  std::vector<double> tau(n), rs(n);
  for (std::size_t i = 0; i < n; ++i) {
    tau[i] = bg_.tau_of_a(std::exp(lna[i]));
  }
  // Optical depth from tau to today, integrated backwards on the grid
  // (trapezoid is adequate at this resolution; the spline smooths it).
  std::vector<double> kap(n, 0.0);
  for (std::size_t i = n - 1; i-- > 0;) {
    const double dt = tau[i + 1] - tau[i];
    kap[i] = kap[i + 1] + 0.5 * dt * (opac[i] + opac[i + 1]);
  }
  kappa_of_tau_ = plinger::math::CubicSpline(tau, kap);

  // Sound horizon: r_s(tau) = int c_s dtau with the photon-baryon fluid
  // speed; start from the analytic radiation-era value r_s ~ tau/sqrt(3).
  const double om_g = p.omega_gamma();
  auto r_b = [&](double a) { return 0.75 * p.omega_b / om_g * a; };
  rs[0] = tau[0] / std::sqrt(3.0 * (1.0 + r_b(std::exp(lna[0]))));
  for (std::size_t i = 1; i < n; ++i) {
    const double a0 = std::exp(lna[i - 1]), a1 = std::exp(lna[i]);
    const double cs0 = 1.0 / std::sqrt(3.0 * (1.0 + r_b(a0)));
    const double cs1 = 1.0 / std::sqrt(3.0 * (1.0 + r_b(a1)));
    rs[i] = rs[i - 1] + 0.5 * (tau[i] - tau[i - 1]) * (cs0 + cs1);
  }
  rs_of_tau_ = plinger::math::CubicSpline(tau, rs);

  // Visibility peak.
  double best_g = -1.0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double g = opac[i] * std::exp(-kap[i]);
    if (g > best_g) {
      best_g = g;
      tau_star_ = tau[i];
      z_star_ = 1.0 / std::exp(lna[i]) - 1.0;
    }
  }
}

double Recombination::x_e_lna(double lna) const {
  return std::exp(xe_of_lna_(lna));
}

double Recombination::t_baryon_lna(double lna) const {
  return std::exp(tb_of_lna_(lna));
}

double Recombination::cs2_baryon_lna(double lna) const {
  return std::exp(cs2_of_lna_(lna));
}

double Recombination::opacity_lna(double lna) const {
  return std::exp(opac_of_lna_(lna));
}

double Recombination::kappa(double tau) const {
  if (tau >= kappa_of_tau_.x_back()) return 0.0;
  return std::max(0.0, kappa_of_tau_(tau));
}

double Recombination::kappa(double tau, std::size_t& hint) const {
  if (tau >= kappa_of_tau_.x_back()) return 0.0;
  return std::max(0.0, kappa_of_tau_(tau, hint));
}

double Recombination::visibility(double tau) const {
  return opacity_lna(bg_.lna_of_tau(tau)) *
         std::exp(-std::min(680.0, kappa(tau)));
}

double Recombination::visibility(double tau, std::size_t& hint) const {
  return opacity_lna(bg_.lna_of_tau(tau)) *
         std::exp(-std::min(680.0, kappa(tau, hint)));
}

double Recombination::sound_horizon(double tau) const {
  return rs_of_tau_(tau);
}

double Recombination::sound_horizon(double tau, std::size_t& hint) const {
  return rs_of_tau_(tau, hint);
}

}  // namespace plinger::cosmo
