#pragma once

/// Fused per-run thermodynamics/background cache for the perturbation
/// hot path.
///
/// Every right-hand-side evaluation of a k-mode needs the same handful
/// of per-a quantities: the species densities grho_i(a), the conformal
/// Hubble rate, the Thomson opacity, the baryon sound speed, and (with
/// massive neutrinos) the Fermi-Dirac density/pressure ratios.  Served
/// directly from Background/Recombination/NuDensity these cost 3-5
/// independent cubic-spline lookups — each a binary search over a
/// ~1k-4k-point table plus log/exp round-trips — repeated 8 times per
/// DVERK step, thousands of steps per mode.  Precomputing the
/// thermodynamics once and evaluating cheaply in the inner loop is the
/// classic Boltzmann-code optimization (Doran, astro-ph/0503277; COSMICS,
/// astro-ph/9506070).
///
/// ThermoCache fuses all of it into one uniform-in-ln(a) table built at
/// construction: a single O(1) index computation (one std::log, one
/// multiply, one floor) locates the interval, and all tabulated channels
/// interpolate from the same pair of adjacent 64-byte knots.  The
/// log/exp transforms of the source tables are hoisted into
/// construction; the analytic power-law pieces (grho components, nu_xi)
/// are evaluated exactly.  The cache is immutable after construction and
/// is shared read-only by all worker threads of a run — one instance per
/// run, zero synchronization, zero wire-protocol change.
///
/// Accuracy: the cache resamples the source splines on a ~3x finer grid
/// (kNPoints = 16384 points over ln a in [ln kAMin, 0], kAMin = 1e-11, vs
/// Recombination's 4096 over [ln 1e-9, 0]), so the cache-vs-direct
/// difference is far
/// below the source tables' own discretization error (see
/// tests/cosmo/test_thermo_cache.cpp for the enforced bounds).

#include <cstddef>
#include <vector>

#include "cosmo/background.hpp"
#include "cosmo/recombination.hpp"

namespace plinger::cosmo {

/// Everything the perturbation RHS needs at one scale factor.
struct ThermoPoint {
  GrhoComponents grho;
  double adotoa = 0.0;           ///< conformal Hubble rate a'/a (Mpc^-1)
  double adotdota_over_a = 0.0;  ///< a''/a = (grho - 3 gpres)/6 (Mpc^-2)
  double opacity = 0.0;          ///< Thomson dkappa/dtau (Mpc^-1)
  double cs2_baryon = 0.0;       ///< baryon sound speed squared (c = 1)
  double nu_xi = 0.0;            ///< a m c^2 / (k_B T_nu0), 0 if no massive nu
  double nu_rho_ratio = 1.0;     ///< rho(xi)/rho(0) for the massive species
  double grho_nu_rel_one = 0.0;  ///< grho of one massless species at a
};

/// The fused cache.  Immutable and thread-safe after construction.
class ThermoCache {
 public:
  /// Table start.  Queries below kAMin clamp the tabulated channels to
  /// the table edge (integrations never go there; the analytic channels
  /// stay exact at all a).
  static constexpr double kAMin = 1e-11;
  static constexpr std::size_t kNPoints = 16384;  ///< uniform ln-a resolution

  ThermoCache(const Background& bg, const Recombination& rec);

  /// All per-a quantities from one O(1) table lookup (a > 0).
  ThermoPoint eval(double a) const;

 private:
  /// One table knot: the four tabulated channels and their natural-spline
  /// second derivatives, interleaved so both knots of an interval are two
  /// adjacent 64-byte lines.
  struct Knot {
    double opac, cs2, rr, pr;      ///< values
    double opac2, cs22, rr2, pr2;  ///< d2/d(ln a)2
  };

  DensityConstants d_;
  bool has_nu_ = false;
  double n_massive_ = 0.0;  ///< n_massive_nu as a double, for the product
  double lna0_ = 0.0;   ///< ln kAMin
  double h_ = 0.0;      ///< uniform ln-a spacing
  double inv_h_ = 0.0;
  double h2over6_ = 0.0;
  std::vector<Knot> knots_;
};

}  // namespace plinger::cosmo
