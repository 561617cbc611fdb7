// The thermal history against its explicit two-component reference.
//
// Recombination holds T_b on its quasi-static value while the Compton
// rate is stiff (at least 1e5 H) and integrates only x_H there.  The
// reference below is the construction that integrated the Peebles + T_b
// system explicitly from the Saha exit, every per-node leg starting from
// a hundredth of the interval.  It is kept verbatim (tables, splines,
// kappa, visibility peak) so that every node of every output table can be
// held against it, and it counts its own ODE work, so the work gate is a
// ratio that does not depend on the machine.

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "cosmo/recombination.hpp"
#include "math/ode.hpp"
#include "math/spline.hpp"

namespace pc = plinger::cosmo;
namespace pm = plinger::math;
namespace k = plinger::constants;

namespace {

double saha_factor(double t_kelvin, double e_ion_joule) {
  const double x = e_ion_joule / (k::k_boltzmann * t_kelvin);
  if (x > 680.0) return 0.0;
  const double pre = 2.0 * std::numbers::pi * k::m_electron *
                     k::k_boltzmann * t_kelvin /
                     (k::h_planck * k::h_planck);
  return std::pow(pre, 1.5) * std::exp(-x);
}

double alpha_b(double t_kelvin, double fudge) {
  const double t4 = t_kelvin / 1e4;
  return fudge * 1e-19 * 4.309 * std::pow(t4, -0.6166) /
         (1.0 + 0.6703 * std::pow(t4, 0.5300));
}

double beta_b(double t_kelvin, double fudge) {
  return alpha_b(t_kelvin, fudge) * saha_factor(t_kelvin, k::E_ion_H_n2);
}

/// The explicit thermal history: node tables and the accessors that
/// Recombination derives from them.
struct ExplicitHistory {
  std::vector<double> lna, tau, xe, tb, cs2, opac, kap, rs;
  double tau_star = 0.0, z_star = 0.0;
  pm::OdeStats stats;
  pm::CubicSpline log_opac, kappa_of_tau;

  double visibility(const pc::Background& bg, double t) const {
    const double kp =
        t >= kappa_of_tau.x_back() ? 0.0 : std::max(0.0, kappa_of_tau(t));
    return std::exp(log_opac(bg.lna_of_tau(t))) *
           std::exp(-std::min(680.0, kp));
  }
};

ExplicitHistory explicit_history(const pc::Background& bg,
                                 const pc::Recombination::Options& opts) {
  ExplicitHistory out;
  const pc::CosmoParams& p = bg.params();
  const double y = p.y_helium;
  const double f_he = y / (4.0 * (1.0 - y));
  const double n_h0 =
      (1.0 - y) * p.omega_b * k::rho_crit_h2 * p.h * p.h / k::m_hydrogen;

  const std::size_t n = opts.n_points;
  const auto lna = pm::linspace(std::log(opts.a_start), 0.0, n);

  auto t_gamma = [&](double a) { return p.t_cmb / a; };
  auto n_h = [&](double a) { return n_h0 / (a * a * a); };

  auto saha_xe = [&](double a, double& x_h_out) {
    const double t = t_gamma(a);
    const double nh = n_h(a);
    const double r_h = saha_factor(t, k::E_ion_H) / nh;
    const double r_he1 = 4.0 * saha_factor(t, k::E_ion_HeI) / nh;
    const double r_he2 = saha_factor(t, k::E_ion_HeII) / nh;
    double xe = 1.0 + 2.0 * f_he;
    double xh = 1.0;
    for (int it = 0; it < 60; ++it) {
      xh = (r_h > 0.0) ? r_h / (xe + r_h) : 0.0;
      double y2 = 0.0, y3 = 0.0;
      if (r_he1 > 0.0) {
        y2 = 1.0 / (1.0 + xe / r_he1 + ((r_he2 > 0.0) ? r_he2 / xe : 0.0));
        y3 = (r_he2 > 0.0) ? y2 * r_he2 / xe : 0.0;
      }
      const double xe_new = xh + f_he * (y2 + 2.0 * y3);
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
  std::size_t i_switch = n;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::exp(lna[i]);
    double xh = 1.0;
    xe[i] = saha_xe(a, xh);
    tb[i] = t_gamma(a);
    if (xh < opts.saha_exit_xh) {
      i_switch = i;
      break;
    }
  }

  auto rhs = [&](double lna_t, std::span<const double> yy,
                 std::span<double> dy) {
    const double a = std::exp(lna_t);
    const double x_h = std::clamp(yy[0], 0.0, 1.0);
    const double t_b = std::max(1e-10, yy[1]);
    const double t_r = t_gamma(a);
    const double nh = n_h(a);
    const double h_cosmic = bg.adotoa(a) / a * k::c_light / k::mpc_in_m;
    const double r_he1 = 4.0 * saha_factor(t_r, k::E_ion_HeI) / nh;
    double x_he = 0.0;
    if (r_he1 > 0.0) {
      const double y2 = 1.0 / (1.0 + std::max(x_h, 1e-6) / r_he1);
      x_he = f_he * y2;
    }
    const double x_e = x_h + x_he;
    const double lam_alpha3 = std::pow(k::lambda_lyman_alpha, 3);
    const double kk = lam_alpha3 / (8.0 * std::numbers::pi * h_cosmic);
    const double n_1s = (1.0 - x_h) * nh;
    const double beta = beta_b(t_b, opts.fudge);
    const double c_p = (1.0 + kk * k::lambda_2s1s * n_1s) /
                       (1.0 + kk * (k::lambda_2s1s + beta) * n_1s);
    const double boltz = std::exp(
        -std::min(680.0, k::E_lyman_alpha / (k::k_boltzmann * t_b)));
    const double dxh_dt =
        c_p * (beta * (1.0 - x_h) * boltz -
               alpha_b(t_b, opts.fudge) * nh * x_e * x_h);
    const double t_r4 = std::pow(t_r, 4);
    const double compton =
        (8.0 / 3.0) * k::sigma_thomson * k::a_radiation * t_r4 /
        (k::m_electron * k::c_light) * x_e / (1.0 + f_he + x_e);
    const double dtb_dt = -2.0 * h_cosmic * t_b + compton * (t_r - t_b);
    dy[0] = dxh_dt / h_cosmic;
    dy[1] = dtb_dt / h_cosmic;
  };

  pm::Dverk integrator;
  pm::OdeOptions ode_opts;
  ode_opts.rtol = 1e-8;
  ode_opts.atol = 1e-12;
  std::vector<double> state = {0.0, tb[i_switch]};
  (void)saha_xe(std::exp(lna[i_switch]), state[0]);
  for (std::size_t i = i_switch; i + 1 < n; ++i) {
    out.stats += integrator.integrate(rhs, lna[i], lna[i + 1], state, ode_opts);
    const double a = std::exp(lna[i + 1]);
    const double t_r = t_gamma(a);
    const double nh = n_h(a);
    const double r_he1 = 4.0 * saha_factor(t_r, k::E_ion_HeI) / nh;
    double x_he = 0.0;
    if (r_he1 > 0.0) {
      const double y2 = 1.0 / (1.0 + std::max(state[0], 1e-6) / r_he1);
      x_he = f_he * y2;
    }
    xe[i + 1] = std::clamp(state[0], 0.0, 1.0) + x_he;
    tb[i + 1] = state[1];
  }

  if (opts.z_reion > 0.0) {
    const double xe_target = 1.0 + f_he;
    for (std::size_t i = 0; i < n; ++i) {
      const double z = 1.0 / std::exp(lna[i]) - 1.0;
      const double f =
          0.5 * (1.0 + std::tanh((opts.z_reion - z) / opts.dz_reion));
      xe[i] = xe[i] + (xe_target - xe[i]) * f;
    }
  }

  std::vector<double> log_buf(n);
  auto log_spline = [&](const std::vector<double>& v) {
    for (std::size_t i = 0; i < n; ++i) {
      log_buf[i] = std::log(std::max(v[i], 1e-300));
    }
    return pm::CubicSpline(lna, log_buf);
  };
  const pm::CubicSpline tb_of_lna = log_spline(tb);
  std::vector<double> cs2(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mu = 1.0 / ((1.0 - y) * (1.0 + xe[i]) + y / 4.0);
    const double dlntb = tb_of_lna.derivative(lna[i]);
    cs2[i] = k::k_boltzmann * tb[i] /
             (mu * k::m_hydrogen * k::c_light * k::c_light) *
             (1.0 - dlntb / 3.0);
  }
  std::vector<double> opac(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::exp(lna[i]);
    opac[i] = xe[i] * n_h0 * k::sigma_thomson * k::mpc_in_m / (a * a);
  }
  out.log_opac = log_spline(opac);

  std::vector<double> tau(n), rs(n), kap(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) tau[i] = bg.tau_of_a(std::exp(lna[i]));
  for (std::size_t i = n - 1; i-- > 0;) {
    const double dt = tau[i + 1] - tau[i];
    kap[i] = kap[i + 1] + 0.5 * dt * (opac[i] + opac[i + 1]);
  }
  out.kappa_of_tau = pm::CubicSpline(tau, kap);
  const double om_g = p.omega_gamma();
  auto r_b = [&](double a) { return 0.75 * p.omega_b / om_g * a; };
  rs[0] = tau[0] / std::sqrt(3.0 * (1.0 + r_b(std::exp(lna[0]))));
  for (std::size_t i = 1; i < n; ++i) {
    const double a0 = std::exp(lna[i - 1]), a1 = std::exp(lna[i]);
    const double cs0 = 1.0 / std::sqrt(3.0 * (1.0 + r_b(a0)));
    const double cs1 = 1.0 / std::sqrt(3.0 * (1.0 + r_b(a1)));
    rs[i] = rs[i - 1] + 0.5 * (tau[i] - tau[i - 1]) * (cs0 + cs1);
  }
  double best_g = -1.0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double g = opac[i] * std::exp(-kap[i]);
    if (g > best_g) {
      best_g = g;
      out.tau_star = tau[i];
      out.z_star = 1.0 / std::exp(lna[i]) - 1.0;
    }
  }
  out.lna = lna;
  out.tau = std::move(tau);
  out.xe = std::move(xe);
  out.tb = std::move(tb);
  out.cs2 = std::move(cs2);
  out.opac = std::move(opac);
  out.kap = std::move(kap);
  out.rs = std::move(rs);
  return out;
}

/// The largest |got - want| / scale over a set of nodes and the
/// redshift where it occurs.
struct Worst {
  double rel = 0.0;
  double z = 0.0;
  void add(double got, double want, double scale, double at_z) {
    const double r = std::abs(got - want) / scale;
    if (r > rel) {
      rel = r;
      z = at_z;
    }
  }
};

}  // namespace

class RecombinationOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(RecombinationOracle, EveryTableNodeMatchesTheExplicitHistory) {
  const std::string name = GetParam();
  const pc::Background bg(name == "scdm"  ? pc::CosmoParams::standard_cdm()
                          : name == "mdm" ? pc::CosmoParams::mixed_dark_matter()
                                          : pc::CosmoParams::lambda_cdm());
  pc::Recombination::Options opts;
  opts.z_reion = name == "lcdm_reion10" ? 10.0 : 0.0;
  const pc::Recombination rec(bg, opts);
  const ExplicitHistory ref = explicit_history(bg, opts);

  double g_peak = 0.0;
  for (const double t : ref.tau) {
    g_peak = std::max(g_peak, ref.visibility(bg, t));
  }

  // The quasi-static T_b is off the explicit one by O(1/R^2) ~ 1e-10 plus
  // the integration tolerance.  Both start T_b at exactly T_r on the Saha
  // exit node, 1/(R + 1) ~ 1.4e-6 above its quasi-static value, so the
  // kink that the cs2 spline derivative of ln T_b carries there is common
  // to both and needs no wider bound.
  Worst xe, opac, kap, vis, tb, cs2;
  for (std::size_t i = 0; i < ref.lna.size(); ++i) {
    const double lna = ref.lna[i], t = ref.tau[i];
    const double z = 1.0 / std::exp(lna) - 1.0;
    xe.add(rec.x_e_lna(lna), ref.xe[i], ref.xe[i], z);
    opac.add(rec.opacity_lna(lna), ref.opac[i], ref.opac[i], z);
    if (ref.kap[i] > 0.0) kap.add(rec.kappa(t), ref.kap[i], ref.kap[i], z);
    vis.add(rec.visibility(t), ref.visibility(bg, t), g_peak, z);
    tb.add(rec.t_baryon_lna(lna), ref.tb[i], ref.tb[i], z);
    cs2.add(rec.cs2_baryon_lna(lna), ref.cs2[i], ref.cs2[i], z);
    ASSERT_EQ(rec.sound_horizon(t), ref.rs[i]) << "z=" << z;
  }
  EXPECT_EQ(rec.kappa(ref.tau.back()), 0.0);
  EXPECT_LE(xe.rel, 1e-8) << "x_e at z=" << xe.z;
  EXPECT_LE(opac.rel, 1e-8) << "opacity at z=" << opac.z;
  EXPECT_LE(kap.rel, 1e-8) << "kappa at z=" << kap.z;
  EXPECT_LE(vis.rel, 1e-8) << "visibility (of its peak) at z=" << vis.z;
  EXPECT_LE(tb.rel, 1e-8) << "T_b at z=" << tb.z;
  EXPECT_LE(cs2.rel, 1e-6) << "cs2 at z=" << cs2.z;
  EXPECT_EQ(rec.tau_star(), ref.tau_star);
  EXPECT_EQ(rec.z_star(), ref.z_star);
}

INSTANTIATE_TEST_SUITE_P(Presets, RecombinationOracle,
                         ::testing::Values("scdm", "lcdm", "mdm",
                                           "lcdm_reion10"));

TEST(RecombinationWorkGate, QuasiStaticEpochCutsTheOdeWorkFourfold) {
  // The gate is a ratio of RHS evaluations, counted by each construction
  // itself: the stiff T_b epoch cost the explicit history most of its
  // work, so without the quasi-static branch the ratio is far above 1/4.
  const pc::Background bg(pc::CosmoParams::lambda_cdm());
  const pc::Recombination rec(bg);
  const ExplicitHistory ref = explicit_history(bg, rec.options());
  ASSERT_GT(rec.ode_stats().n_rhs, 0);
  EXPECT_LE(4 * rec.ode_stats().n_rhs, ref.stats.n_rhs)
      << "quasi-static build " << rec.ode_stats().n_rhs
      << " RHS evaluations, explicit " << ref.stats.n_rhs;
}
