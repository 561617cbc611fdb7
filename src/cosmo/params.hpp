#pragma once

/// Cosmological model parameters.
///
/// The paper's production model is "standard Cold Dark Matter": a flat
/// Omega = 1 universe with h = 0.5, Omega_b = 0.05, three massless
/// neutrino species, a scale-invariant (n_s = 1) primordial spectrum and
/// T_cmb = 2.726 K, COBE-normalized.  We also provide Lambda-CDM and
/// mixed dark matter (massive-neutrino) presets since LINGER supports a
/// cosmological constant and massive neutrinos.

#include <string>

namespace plinger::cosmo {

/// Input parameters of a cosmological model.  All Omegas are present-day
/// density parameters.  Radiation (photon + massless neutrino) densities
/// are derived from T_cmb, not specified.
struct CosmoParams {
  double h = 0.5;             ///< H0 / (100 km/s/Mpc)
  double omega_c = 0.95;      ///< cold dark matter
  double omega_b = 0.05;      ///< baryons
  double omega_lambda = 0.0;  ///< cosmological constant
  double omega_nu = 0.0;      ///< massive neutrinos (converted to a mass)
  double t_cmb = 2.726;       ///< CMB temperature today (K)
  double y_helium = 0.24;     ///< primordial helium mass fraction
  double n_eff_massless = 3.0;  ///< number of massless neutrino species
  int n_massive_nu = 0;         ///< number of degenerate massive species
  double n_s = 1.0;             ///< primordial spectral index

  /// Hubble rate today in Mpc^-1 (c = 1 units).
  double hubble0() const;

  /// Photon density parameter Omega_gamma derived from t_cmb and h.
  double omega_gamma() const;

  /// Massless-neutrino density parameter (n_eff_massless species).
  double omega_nu_massless() const;

  /// Total matter Omega (CDM + baryons + massive neutrinos).
  double omega_matter() const { return omega_c + omega_b + omega_nu; }

  /// The one test for massive neutrinos (Background's NuDensity, the
  /// ThermoCache channels, the hashed momentum nodes).  validate()
  /// refuses either half without the other.
  bool has_massive_nu() const { return n_massive_nu > 0 && omega_nu > 0.0; }

  /// Close the universe to flatness by deriving omega_c from everything
  /// else: omega_c = 1 - omega_b - omega_lambda - omega_nu - omega_gamma
  /// - omega_nu_massless.  This is the one canonical form of the closure
  /// every entry point used to hand-roll; it throws InvalidArgument when
  /// the remaining budget is negative (the hand-rolled versions silently
  /// produced a negative omega_c and NaN backgrounds downstream).
  void close_universe();

  /// Throws InvalidArgument when parameters are unphysical or unsupported
  /// (the perturbation module requires a flat universe; the background
  /// tolerates |1 - Omega_total| < 1e-8 only).
  void validate() const;

  /// Human-readable one-line summary.
  std::string summary() const;

  // --- presets ---
  /// The paper's production model (Figures 2 and 3).
  static CosmoParams standard_cdm();
  /// A 1995-era Lambda-CDM alternative (h = 0.65, Omega_m = 0.35).
  static CosmoParams lambda_cdm();
  /// Mixed dark matter: one massive neutrino species with
  /// Omega_nu = 0.2 (the C+HDM models of the early 90s).
  static CosmoParams mixed_dark_matter();
};

}  // namespace plinger::cosmo
