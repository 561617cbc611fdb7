#pragma once

/// The linearized Einstein + Boltzmann + fluid equations in synchronous
/// gauge (Ma & Bertschinger 1995; the equation numbers cited in the
/// implementation refer to that paper).  This is the physics core of
/// LINGER.
///
/// The metric variables (h, eta) are advanced with the two Einstein
/// *constraint* equations (21a, 21b); the two *evolution* equations are
/// exposed as residual diagnostics for the test suite.  Photon
/// temperature and polarization, massless neutrinos, and massive
/// neutrinos (per momentum node) are full Boltzmann hierarchies with the
/// spherical-Bessel truncation closure (eqs. 51, 65).  At early times the
/// photon-baryon system is advanced with the first-order tight-coupling
/// expansion (eqs. 66, 67) including the polarization-corrected slaved
/// shear sigma_g = (16/45) tau_c (theta_g + k^2 alpha).

#include <cstdint>
#include <span>
#include <vector>

#include "boltzmann/config.hpp"
#include "cosmo/background.hpp"
#include "cosmo/recombination.hpp"
#include "cosmo/thermo_cache.hpp"

namespace plinger::boltzmann {

/// Conformal-Newtonian gauge potentials derived from the synchronous
/// variables (MB95 eqs. 18-23).
struct NewtonianPotentials {
  double phi = 0.0;  ///< curvature potential
  double psi = 0.0;  ///< "gravitational potential" of the paper's movie
};

/// Residuals of the two Einstein evolution equations, used by tests:
/// residual_trace:  h'' + 2(a'/a)h' - 2k^2 eta + 24 pi G a^2 dp  (eq. 21c)
/// residual_shear:  (h+6eta)'' + 2(a'/a)(h+6eta)' - 2k^2 eta
///                  + 24 pi G a^2 (rho+p) sigma                  (eq. 21d)
struct EinsteinResiduals {
  double trace = 0.0;
  double shear = 0.0;
  double scale = 1.0;  ///< typical term magnitude for normalization
};

/// Right-hand side of one k-mode.  Holds references to the shared
/// background/thermodynamics (immutable, thread-safe) plus per-mode
/// scratch; one instance per worker, not shared across threads.
class ModeEquations {
 public:
  /// With a non-null `cache` the per-a background/thermo quantities come
  /// from one fused O(1) ThermoCache lookup instead of the individual
  /// Background/Recombination splines — same physics, hot-path speed.
  /// The cache must outlive this object and match (bg, rec).  Passing
  /// nullptr keeps the direct-spline path (used as the reference and as
  /// the bench baseline).  The massive-neutrino block has one row per
  /// node of bg.nu()->q_grid(), none without massive neutrinos.
  ModeEquations(const cosmo::Background& bg,
                const cosmo::Recombination& rec,
                const PerturbationConfig& cfg, double k,
                const cosmo::ThermoCache* cache = nullptr);

  const StateLayout& layout() const { return layout_; }
  double k() const { return k_; }

  /// Initial conditions at conformal time tau, which must be
  /// superhorizon (k tau << 1) and radiation-dominated.  For the
  /// adiabatic mode these are MB95 eq. 96 with amplitude C = 1; for the
  /// CDM isocurvature mode (config ic_type) the entropy mode with
  /// delta_c = 1 (see the implementation for the derivation).
  std::vector<double> initial_conditions(double tau) const;

  /// Full (post-tight-coupling) right-hand side.
  void rhs_full(double tau, std::span<const double> y,
                std::span<double> dy) const;

  /// Tight-coupling right-hand side: photon moments l >= 2 and
  /// polarization are slaved, baryon-photon slip expanded to first order
  /// in 1/opacity.
  void rhs_tca(double tau, std::span<const double> y,
               std::span<double> dy) const;

  /// Mutate the state at the tight-coupling -> full switch: seed the
  /// slaved photon shear and polarization moments with their
  /// quasi-static values so the full equations start smoothly.
  void tca_handoff(double tau, std::span<double> y) const;

  /// True while tight coupling is valid at conformal time tau (threshold
  /// tca_eps from the config; also false below redshift kTcaExitZ).
  bool tca_valid(double tau) const;

  /// phi and psi of the conformal Newtonian gauge at (tau, y).
  NewtonianPotentials newtonian(double tau, std::span<const double> y) const;

  /// Background and metric quantities at (tau, y) needed by gauge
  /// transformations and diagnostics (all in the grho = 8 pi G a^2 rho
  /// convention; shear uses the tight-coupling slaved photon value while
  /// tight coupling is valid at tau).
  struct Couplings {
    double a, adotoa;
    double hdot, etadot, alpha;
    double gdrho, gdq, gdshear;
    cosmo::GrhoComponents grho;
  };
  Couplings couplings(double tau, std::span<const double> y) const;

  /// Einstein evolution-equation residuals at (tau, y) — a correctness
  /// diagnostic: both should be << scale for a converged solution.
  EinsteinResiduals einstein_residuals(double tau,
                                       std::span<const double> y) const;

  /// Density-weighted total matter overdensity (CDM + baryons + massive
  /// neutrinos), the quantity whose power spectrum LINGER reports.
  double delta_matter(std::span<const double> y) const;

  /// The polarization source Pi = F_gamma2 + G_gamma0 + G_gamma2 at
  /// (tau, y).  While tight coupling holds (`in_tca`), the slaved
  /// moments sit at zero in the state vector, so the quasi-static
  /// expansion tca_handoff seeds — Pi = (5/2) F2 with F2 = 2 sigma_g =
  /// (32/45) tau_c (theta_g + k^2 alpha) — is reconstructed instead of
  /// read.  Line-of-sight source tables sample this at every recorded
  /// time, so the Pi column is populated across the full visibility
  /// window rather than starting at the tight-coupling exit.
  double pi_source(double tau, std::span<const double> y,
                   bool in_tca) const;

  /// Estimated floating-point operations per rhs_full evaluation — the
  /// basis of the paper-style Mflop accounting (§5.1).
  std::uint64_t flops_per_rhs() const;

  /// Number of RHS evaluations so far (both variants).
  std::uint64_t rhs_calls() const { return n_calls_; }

 private:
  /// Everything both RHS variants need at a given (tau, y).
  struct Common {
    double a, adotoa, opac, cs2;
    double adotdota = 0.0;   ///< a''/a; filled only on the cached path
    double r_photon_baryon;  ///< R = 4 rho_g / (3 rho_b)
    double gdrho;            ///< 8 pi G a^2 delta rho
    double gdq;              ///< 8 pi G a^2 (rho+p) theta
    double gdshear;          ///< 8 pi G a^2 (rho+p) sigma (no photon TCA part)
    double hdot, etadot, alpha;
    cosmo::GrhoComponents grho;
  };
  std::vector<double> isocurvature_initial_conditions(double tau) const;

  Common compute_common(std::span<const double> y,
                        bool photon_shear_from_state) const;

  void massive_nu_rhs(double tau, std::span<const double> y,
                      std::span<double> dy, const Common& c) const;
  void massless_nu_rhs(double tau, std::span<const double> y,
                       std::span<double> dy, const Common& c) const;

  const cosmo::Background& bg_;
  const cosmo::Recombination& rec_;
  PerturbationConfig cfg_;
  double k_;
  StateLayout layout_;
  const cosmo::ThermoCache* cache_ = nullptr;

  /// Precomputed hierarchy couplings: the per-multipole divides
  /// k l/(2l+1) (and the k-free variant for the massive-neutrino rows,
  /// which carry q k / eps instead of k) are the hottest arithmetic in
  /// the RHS; tabulating them at construction turns the interior
  /// hierarchy loops into pure multiply-add streams.
  std::vector<double> lo_k_;  ///< k l/(2l+1), photon/pol/massless nu
  std::vector<double> hi_k_;  ///< k (l+1)/(2l+1)
  std::vector<double> lo_q_;  ///< l/(2l+1), massive nu (times qke)
  std::vector<double> hi_q_;  ///< (l+1)/(2l+1)

  /// Per-mode constants hoisted out of the RHS: divides are the most
  /// expensive scalar ops left on the cached path, and these three keep
  /// recurring with the same operands every call.  k_third_/k_fifth_ are
  /// bitwise identical to the per-call k/3, k/5 they replace; the
  /// reciprocal inv_2k2_ turns the two Einstein-constraint divides into
  /// multiplies (last-ulp change, covered by the golden tolerances).
  double k_third_ = 0.0;  ///< k / 3
  double k_fifth_ = 0.0;  ///< k / 5
  double inv_2k2_ = 0.0;  ///< 1 / (2 k^2)
  double nu_norm_ = 0.0;  ///< n_massive_nu / grid_norm_massless()

  mutable std::uint64_t n_calls_ = 0;
};

}  // namespace plinger::boltzmann
