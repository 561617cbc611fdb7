#pragma once

/// Recombination and thermal history.
///
/// The paper claims "accurate treatments of hydrogen and helium
/// recombination, decoupling of photons and baryons, and Thomson
/// scattering" (§2).  We implement the standard treatment of that era
/// plus the later RECFAST calibration factor:
///
///  * helium via Saha equilibrium (HeIII -> HeII -> HeI),
///  * hydrogen via Saha while x_H > 0.985, then the Peebles (1968)
///    effective three-level ODE with the RECFAST case-B recombination
///    coefficient and the 1.14 multilevel fudge factor,
///  * the baryon (matter) temperature T_b with Compton coupling.  While
///    the Compton rate is at least kTightCompton = 1e5 times H (from the
///    Saha exit to z ~ 1000) the T_b equation is stiff, and T_b is held
///    on its quasi-static value T_r R / (R + 1), R = rate / H, which is
///    off the exact solution by O(1/R^2); only x_H is integrated there.
///    Below that the two-component Peebles + T_b ODE takes over from
///    that T_b (the switch RECFAST makes, Seager, Sasselov & Scott 1999),
///  * Thomson opacity dkappa/dtau, the optical depth kappa(tau), and the
///    visibility function g(tau) = kappa' e^{-kappa}.
///
/// Everything is tabulated once at construction on a log-a grid and then
/// served through splines; the class is immutable and thread-safe
/// afterwards, shared by all k-mode workers.  The ODE runs with DVERK,
/// one leg per log-a node, each leg starting with a full-interval trial
/// step.

#include <cmath>
#include <cstddef>

#include "cosmo/background.hpp"
#include "math/ode.hpp"
#include "math/spline.hpp"

namespace plinger::cosmo {

/// Thermal history and Thomson opacity of a cosmological model.
class Recombination {
 public:
  /// Tuning knobs; the defaults reproduce the standard treatment.
  struct Options {
    double a_start = 1e-9;      ///< table start (fully ionized there)
    std::size_t n_points = 4096;  ///< log-a table resolution
    double saha_exit_xh = 0.985;  ///< switch Saha -> Peebles ODE
    double fudge = 1.14;          ///< RECFAST multilevel calibration
    /// Optional late reionization (an extension: the paper's standard
    /// CDM runs have none).  z_reion <= 0 disables it; otherwise x_e is
    /// raised to the fully-ionized H + singly-ionized He value over a
    /// tanh of width dz_reion.  Gas reheating is not modeled (it has no
    /// effect on the Thomson opacity, which is all the perturbations
    /// see).
    double z_reion = 0.0;
    double dz_reion = 1.5;

    friend bool operator==(const Options&, const Options&) = default;
  };

  explicit Recombination(const Background& bg);
  Recombination(const Background& bg, const Options& opts);

  /// The options this history was built with (part of the run identity).
  const Options& options() const { return opts_; }

  /// Free-electron fraction x_e = n_e / n_H at scale factor a.
  double x_e(double a) const { return x_e_lna(std::log(a)); }

  /// Baryon (matter) temperature in K.
  double t_baryon(double a) const { return t_baryon_lna(std::log(a)); }

  /// Baryon sound speed squared in c = 1 units:
  /// c_s^2 = (k_B T_b / mu m_H c^2) (1 - (1/3) dln T_b/dln a).
  double cs2_baryon(double a) const { return cs2_baryon_lna(std::log(a)); }

  /// Thomson opacity dkappa/dtau = x_e n_H sigma_T a (Mpc^-1).
  double opacity(double a) const { return opacity_lna(std::log(a)); }

  /// ln a-keyed variants of the four thermal accessors.  Every table is
  /// ln a-gridded, so callers that already hold ln a (ThermoCache
  /// construction, visibility via Background::lna_of_tau) skip one
  /// std::log per quantity by calling these directly.
  double x_e_lna(double lna) const;
  double t_baryon_lna(double lna) const;
  double cs2_baryon_lna(double lna) const;
  double opacity_lna(double lna) const;

  /// Optical depth from conformal time tau to today.
  double kappa(double tau) const;

  /// Hinted kappa for monotone tau sweeps (line-of-sight integrals): the
  /// caller-held hint keeps the non-uniform tau-spline lookup O(1).
  double kappa(double tau, std::size_t& hint) const;

  /// Visibility function g(tau) = (dkappa/dtau) e^{-kappa(tau)} (Mpc^-1);
  /// integrates to 1 over tau.
  double visibility(double tau) const;

  /// Hinted visibility for monotone tau sweeps; `hint` caches the
  /// kappa-spline interval between calls.
  double visibility(double tau, std::size_t& hint) const;

  /// Conformal time of the visibility peak ("recombination", Mpc).
  double tau_star() const { return tau_star_; }

  /// Redshift of the visibility peak.
  double z_star() const { return z_star_; }

  /// Photon-baryon sound horizon r_s(tau) = int_0^tau dtau'/sqrt(3(1+R_b)),
  /// R_b = 3 rho_b / (4 rho_gamma) (Mpc).
  double sound_horizon(double tau) const;

  /// Hinted sound horizon for monotone tau sweeps.
  double sound_horizon(double tau, std::size_t& hint) const;

  /// Helium-to-hydrogen nucleus ratio f_He = Y / (4(1-Y)).
  double f_helium() const { return f_he_; }

  /// Hydrogen nucleus number density today (m^-3).
  double n_h0() const { return n_h0_; }

  /// Work of the construction's ODE integration, summed over its legs.
  const plinger::math::OdeStats& ode_stats() const { return ode_stats_; }

 private:
  const Background& bg_;
  Options opts_;
  double f_he_ = 0.0;
  double n_h0_ = 0.0;
  double tau_star_ = 0.0;
  double z_star_ = 0.0;
  plinger::math::OdeStats ode_stats_;

  plinger::math::CubicSpline xe_of_lna_;
  plinger::math::CubicSpline tb_of_lna_;
  plinger::math::CubicSpline cs2_of_lna_;
  plinger::math::CubicSpline opac_of_lna_;
  plinger::math::CubicSpline kappa_of_tau_;
  plinger::math::CubicSpline rs_of_tau_;
};

}  // namespace plinger::cosmo
