#pragma once

/// FLRW background evolution in conformal time.
///
/// All densities enter as grho_i(a) = 8 pi G a^2 rho_i / c^2 in Mpc^-2, so
/// the Friedmann equation is (a'/a)^2 = grho_total(a) / 3 with ' = d/dtau
/// and tau in Mpc.  The class tabulates tau(a) once at construction and
/// provides the forward and inverse mappings plus every background
/// quantity the perturbation equations need.

#include <memory>

#include "cosmo/nu_density.hpp"
#include "cosmo/params.hpp"
#include "math/spline.hpp"

namespace plinger::cosmo {

/// Densities split by species at a given scale factor, as grho values
/// (8 pi G a^2 rho, Mpc^-2).
struct GrhoComponents {
  double cdm = 0.0;
  double baryon = 0.0;
  double photon = 0.0;
  double nu_massless = 0.0;
  double nu_massive = 0.0;
  double lambda = 0.0;
  double total() const {
    return cdm + baryon + photon + nu_massless + nu_massive + lambda;
  }
};

/// Raw density constants of a Background — everything needed to
/// evaluate grho(a) analytically outside the class.  Exposed for fused
/// per-run caches (ThermoCache) that must reproduce the background
/// composition without re-deriving it from CosmoParams.
struct DensityConstants {
  double grhom = 0.0;         ///< 3 H0^2
  double cdm0 = 0.0;          ///< 8 pi G rho_cdm(a=1)
  double baryon0 = 0.0;
  double photon0 = 0.0;
  double nu_massless0 = 0.0;  ///< all massless species combined
  double nu_rel_one0 = 0.0;   ///< one massless species
  double lambda0 = 0.0;
  double xi0 = 0.0;           ///< m c^2/(k_B T_nu0) per massive species
  int n_massive_nu = 0;
};

/// The background cosmology.  Immutable and thread-safe after
/// construction; one instance is shared by all k-mode workers.
class Background {
 public:
  /// Validates params, solves the massive-neutrino mass (if any), and
  /// builds the tau(a) table from a = 1e-10 to a = 1.
  explicit Background(const CosmoParams& params);

  const CosmoParams& params() const { return params_; }

  /// Species densities at scale factor a.
  GrhoComponents grho(double a) const;

  /// Total pressure as gpres = 8 pi G a^2 p / c^2 (Mpc^-2).
  double gpres(double a) const;

  /// Conformal Hubble rate a'/a (Mpc^-1).
  double adotoa(double a) const;

  /// a''/a = (grho - 3 gpres) / 6 (Mpc^-2), needed by the tight-coupling
  /// slip expansion.
  double adotdota_over_a(double a) const;

  /// Conformal time at scale factor a (Mpc).
  double tau_of_a(double a) const;

  /// Scale factor at conformal time tau.
  double a_of_tau(double tau) const;

  /// ln a at conformal time tau — the raw table value a_of_tau()
  /// exponentiates.  Callers whose downstream lookups are ln-a-keyed
  /// (Recombination's *_lna accessors, ThermoCache) use this to skip the
  /// exp/log round-trip.
  double lna_of_tau(double tau) const;

  /// Conformal age tau(a=1) (Mpc).
  double conformal_age() const { return conformal_age_; }

  /// Conformal time of matter-radiation equality, and the equality scale
  /// factor (radiation = photons + all neutrinos while relativistic).
  double a_equality() const { return a_eq_; }

  /// Massive-neutrino machinery (nullptr unless
  /// params().has_massive_nu()).  Its q_grid() is the one momentum grid
  /// the perturbation hierarchy sums.
  const NuDensity* nu() const { return nu_.get(); }

  /// xi(a) = a m c^2 / (k_B T_nu0) for the massive species (0 if none).
  double nu_xi(double a) const { return xi0_ * a; }

  /// Neutrino mass in eV implied by omega_nu (0 if none).
  double nu_mass_ev() const { return nu_mass_ev_; }

  /// grho of a *single* massless neutrino species at a — the calibration
  /// unit for the massive-neutrino perturbation integrals.
  double grho_nu_rel_one(double a) const { return grho_nu_rel_one_ / (a * a); }

  /// The raw density constants (for fused caches; see DensityConstants).
  DensityConstants density_constants() const {
    DensityConstants d;
    d.grhom = grhom_;
    d.cdm0 = grho_c0_;
    d.baryon0 = grho_b0_;
    d.photon0 = grho_g0_;
    d.nu_massless0 = grho_nu_ml0_;
    d.nu_rel_one0 = grho_nu_rel_one_;
    d.lambda0 = grho_v0_;
    d.xi0 = xi0_;
    d.n_massive_nu = nu_ ? params_.n_massive_nu : 0;
    return d;
  }

 private:
  /// gpres from already-computed components (one grho(a) per caller).
  double gpres_of(const GrhoComponents& g, double a) const;

  CosmoParams params_;
  double grhom_ = 0.0;            ///< 3 H0^2
  double grho_c0_ = 0.0;          ///< 8 pi G rho_cdm(a=1): grhom*Omega_c
  double grho_b0_ = 0.0;
  double grho_g0_ = 0.0;
  double grho_nu_ml0_ = 0.0;      ///< all massless species combined
  double grho_nu_rel_one_ = 0.0;  ///< one massless species
  double grho_v0_ = 0.0;          ///< Lambda
  double xi0_ = 0.0;              ///< m c^2/(k_B T_nu0) per massive species
  double nu_mass_ev_ = 0.0;
  std::shared_ptr<const NuDensity> nu_;

  double conformal_age_ = 0.0;
  double a_eq_ = 0.0;
  plinger::math::CubicSpline tau_of_lna_;
  plinger::math::CubicSpline lna_of_tau_;
};

}  // namespace plinger::cosmo
