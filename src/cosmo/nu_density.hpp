#pragma once

/// Massive-neutrino phase-space thermodynamics.
///
/// LINGER integrates the massive-neutrino Boltzmann hierarchy over the
/// comoving 3-momentum q with no free-streaming approximation (paper §2).
/// This module supplies everything q-related:
///
///  * the background energy-density and pressure integrals
///      I_rho(xi) = \int q^2 sqrt(q^2 + xi^2) f0(q) dq,
///      I_p(xi)   = (1/3) \int q^4 / sqrt(q^2 + xi^2) f0(q) dq,
///    with f0(q) = 1/(e^q + 1) and xi = a m c^2 / (k_B T_nu0),
///    tabulated in log(xi) with exact relativistic/non-relativistic limits,
///  * the Gauss-Laguerre q-grid (nodes, weights including q^2 f0, and
///    d ln f0 / d ln q) used by the perturbation hierarchy,
///  * the mass <-> Omega_nu conversion.

#include <cstddef>
#include <vector>

#include "math/spline.hpp"

namespace plinger::cosmo {

/// One quadrature node of the massive-neutrino momentum grid.
struct NuQuadPoint {
  double q;          ///< comoving momentum in units of k_B T_nu0
  double weight;     ///< w_i q_i^2 f0(q_i) e^{q_i} ... folded so that
                     ///< sum_i weight_i g(q_i) ~ \int q^2 f0(q) g(q) dq
  double dlnf0dlnq;  ///< d ln f0 / d ln q = -q / (1 + e^{-q})
};

/// Fermi-Dirac background integrals and the perturbation q-grid for one
/// massive neutrino species.  Thread-safe after construction (all methods
/// const).
class NuDensity {
 public:
  /// Gauss-Laguerre nodes of the perturbation grid: the massive-neutrino
  /// rows of every mode's state, and the node count the identity hashes.
  static constexpr std::size_t kQNodes = 16;

  NuDensity();

  /// rho(xi) / rho(0): energy density relative to the massless limit.
  double rho_ratio(double xi) const;

  /// p(xi) / p(0): pressure relative to the massless limit
  /// (p(0) = rho(0) / 3).
  double p_ratio(double xi) const;

  /// d(rho_ratio)/d(xi), used for d(grho)/da.
  double drho_ratio_dxi(double xi) const;

  /// I_rho(0) = 7 pi^4 / 120.
  static double i_rho_massless();

  /// The perturbation momentum grid: kQNodes nodes.
  const std::vector<NuQuadPoint>& q_grid() const { return q_grid_; }

  /// sum_i weight_i q_i ~ \int q^3 f0 dq — the massless normalization of
  /// the grid, used to normalize perturbation integrals consistently.
  double grid_norm_massless() const { return grid_norm_; }

  /// Solve xi0 = m c^2/(k_B T_nu0) such that one species contributes the
  /// given Omega_nu (per species) for the given photon density parameter
  /// omega_gamma.  Returns xi0; the neutrino mass in eV is
  /// xi0 * k_B * T_nu0 / eV.
  double xi0_for_omega(double omega_nu_per_species,
                       double omega_gamma) const;

 private:
  plinger::math::CubicSpline log_rho_;  ///< log I_rho vs log xi
  plinger::math::CubicSpline log_p_;    ///< log I_p vs log xi
  double xi_min_, xi_max_;
  std::vector<NuQuadPoint> q_grid_;
  double grid_norm_ = 0.0;
};

}  // namespace plinger::cosmo
