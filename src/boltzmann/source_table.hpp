#pragma once

/// The SourceTable layer: one typed table of line-of-sight source
/// samples per mode, and one projection that folds any such table
/// against spherical-Bessel kernels to produce both the temperature and
/// the polarization transfer functions.
///
/// A mode evolution (hierarchy or short-tower LOS, dverk or dop853
/// dense output) records TransferSamples at los_sample_taus(); this
/// layer turns them into the four source columns of the line-of-sight
/// integrand (conformal Newtonian gauge, x = k (tau0 - tau)):
///
///   Theta_l(k) = int dtau [ S_T0 j_l(x) + S_T1 j_l'(x)
///                         + S_T2 (3 Ek_l(x) - 2 j_l(x)) ],
///   G_l(k)     = int dtau   S_E  Ek_l(x),
///
/// with the E-mode kernel Ek_l = j_l + j_l'' = l(l+1)/x^2 j_l
/// - (2/x) j_l' and
///
///   S_T0 = g (Theta0^N + psi) + e^{-kappa} (phi + psi)',   (SW + ISW)
///   S_T1 = g v_b^N,                                        (Doppler)
///   S_T2 = g Pi / 16,                  (polarization correction, P_2)
///   S_E  = (3/16) g Pi,
///
/// where Pi = F_gamma2 + G_gamma0 + G_gamma2 is the TransferSample
/// pi_pol column.  The S_T2 term is the Pi correction to the
/// temperature quadrupole source (the mu-space source carries
/// -opac Pi P_2(mu)/2, whose Legendre projection is the 3 j_l'' + j_l
/// = 3 Ek_l - 2 j_l kernel); G_l is the MB95 polarization moment the
/// hierarchy evolves, so the projected mode feeds ClAccumulator exactly
/// like ModeResult::g_gamma does and C_l^EE/C_l^TE agree between the
/// solvers by construction.

#include <cstddef>
#include <vector>

#include "boltzmann/los.hpp"

namespace plinger::boltzmann {

/// Per-mode table of line-of-sight source samples (ascending tau).
struct SourceTable {
  double k = 0.0;     ///< comoving wavenumber of the mode
  double tau0 = 0.0;  ///< projection endpoint (the mode's tau_end)
  std::vector<double> tau;   ///< sample times, ascending
  std::vector<double> s_t0;  ///< g (Theta0^N + psi) + e^{-kappa}(phi+psi)'
  std::vector<double> s_t1;  ///< g v_b^N
  std::vector<double> s_t2;  ///< g Pi / 16
  std::vector<double> s_e;   ///< (3/16) g Pi
};

/// Build the source table from a mode evolution that recorded
/// TransferSamples at los_sample_taus().  Requires >= 16 samples (the
/// ISW spline derivative needs a resolved time axis); throws
/// InvalidArgument otherwise.
SourceTable build_source_table(const cosmo::Background& bg,
                               const cosmo::Recombination& rec,
                               const ModeResult& mode);

/// Both transfer functions of one projected mode, in the MB95 moment
/// convention (F_l = 4 Theta_l, G_l as evolved by the hierarchy) so
/// they feed ClAccumulator exactly like ModeResult does.
struct ProjectedMode {
  std::vector<double> f_gamma;  ///< temperature, l = 0..l_max
  std::vector<double> g_gamma;  ///< polarization, l = 0..l_max
};

/// Project a source table onto l = 0..l_max with direct Bessel
/// evaluation per sample (the reference path).
///
/// Both overloads integrate on a kernel-resolving refinement of the
/// sampled grid: each tau interval is subdivided until k dtau <= 0.25
/// (cubic splines carry the source columns onto the fine points), so a
/// coarsely sampled visibility tail cannot alias the j_l oscillation.
ProjectedMode project_source_table(const SourceTable& src,
                                   std::size_t l_max);

/// The production fast path: identical projection, j_l from a shared
/// BesselTable, and each refined point folds only the l its table row
/// carries (the rest have |j_l| below kBesselCut).  Requires
/// l_max + 1 <= table.l_max() — the projection reads l <= l_max, but its
/// Bessel buffer is one l wider, since node values depend on the
/// evaluator's width — and every sample's argument within the table
/// range.
ProjectedMode project_source_table(const SourceTable& src,
                                   std::size_t l_max,
                                   const BesselTable& table);

}  // namespace plinger::boltzmann
