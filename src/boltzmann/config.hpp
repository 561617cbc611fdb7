#pragma once

/// Configuration and state-vector layout for one Einstein-Boltzmann mode.
///
/// The state vector of a wavenumber k in synchronous gauge is
///
///   [ a, eta, h,
///     delta_c, delta_b, theta_b, delta_g, theta_g,
///     F_gamma[2..lmax_photon],          (temperature hierarchy)
///     G_gamma[0..lmax_polarization],    (polarization hierarchy)
///     F_nu[0..lmax_neutrino],           (massless neutrinos)
///     Psi[q=0..n_q-1][l=0..lmax_massive_nu] ]  (massive neutrinos)
///
/// following Ma & Bertschinger (1995).  n_q is the size of the
/// background's momentum grid (Background::nu()->q_grid()), 0 for a
/// model without massive neutrinos.  theta_gamma = (3k/4) F_gamma1 and
/// sigma_gamma = F_gamma2 / 2 relate the fluid and hierarchy variables.

#include <cstddef>

#include "common/error.hpp"

namespace plinger::boltzmann {

/// Which primordial mode to evolve.  LINGER handles both the standard
/// adiabatic (curvature) mode and CDM entropy (isocurvature)
/// perturbations.
enum class InitialConditionType { adiabatic, cdm_isocurvature };

/// Which ODE core advances the mode.  dverk is the paper's Verner 6(5)
/// (step-clamped sampling, the bitwise-stable default); dop853 is
/// Hairer's Dormand-Prince 8(5,3) whose dense output answers sample
/// times by interpolation inside accepted steps.
enum class IntegratorKind { dverk, dop853 };

/// Each mode starts superhorizon, at k tau = kIcEps ...
inline constexpr double kIcEps = 1e-3;
/// ... and no later than a_eq / kEarlyAFactor (radiation dominated).
inline constexpr double kEarlyAFactor = 100.0;
/// Tight coupling ends at this redshift at the latest.
inline constexpr double kTcaExitZ = 2500.0;

/// Numerical controls for the per-mode integration.  The lmax fields are
/// per-run values; use lmax_photon_for_k() to pick the paper's k-dependent
/// hierarchy size.
struct PerturbationConfig {
  InitialConditionType ic_type = InitialConditionType::adiabatic;
  std::size_t lmax_photon = 128;      ///< photon temperature hierarchy
  std::size_t lmax_polarization = 32;  ///< photon polarization hierarchy.
  /// Polarization feeds temperature only through its l = 0, 2 moments, so
  /// a short hierarchy suffices for C_l^T; raise it (up to lmax_photon)
  /// when the E-mode spectrum itself is wanted at high l.
  std::size_t lmax_neutrino = 32;     ///< massless neutrino hierarchy
  std::size_t lmax_massive_nu = 10;   ///< massive neutrino hierarchy per q

  IntegratorKind integrator = IntegratorKind::dverk;  ///< ODE core

  double rtol = 1e-6;   ///< integrator relative tolerance
  double atol = 1e-12;  ///< integrator absolute tolerance

  double tca_eps = 8e-3;  ///< leave tight coupling when
                          ///< max(k, a'/a)/opacity exceeds this
};

/// Photon hierarchy size needed to free-stream moments up to l ~ k tau0
/// without truncation reflections: lmax = 1.15 k tau0 + 60, capped.
/// The cap is applied in double, before the cast, so a huge, infinite or
/// NaN want comes out as cap instead of an out-of-range conversion.
inline std::size_t lmax_photon_for_k(double k, double tau0,
                                     std::size_t cap = 12000) {
  constexpr double kMargin = 1.15;
  constexpr double kPad = 60.0;
  const double want = kMargin * k * tau0 + kPad;
  if (!(want < static_cast<double>(cap))) return cap;
  const auto lmax = static_cast<std::size_t>(want);
  return lmax < 12 ? 12 : lmax;
}

/// Index map over the state vector described above.
class StateLayout {
 public:
  StateLayout(std::size_t lmax_photon, std::size_t lmax_polarization,
              std::size_t lmax_neutrino, std::size_t n_q,
              std::size_t lmax_massive_nu)
      : lg_(lmax_photon),
        lp_(lmax_polarization),
        ln_(lmax_neutrino),
        nq_(n_q),
        lm_(lmax_massive_nu) {
    PLINGER_REQUIRE(lg_ >= 4, "lmax_photon must be >= 4");
    PLINGER_REQUIRE(lp_ >= 4 && lp_ <= lg_,
                    "lmax_polarization must be in [4, lmax_photon]");
    PLINGER_REQUIRE(ln_ >= 4, "lmax_neutrino must be >= 4");
    PLINGER_REQUIRE(nq_ == 0 || lm_ >= 3,
                    "lmax_massive_nu must be >= 3 when n_q > 0");
    of_fg_ = 8;                     // F_gamma[2..lg]
    of_gg_ = of_fg_ + (lg_ - 1);    // G_gamma[0..lp]
    of_fn_ = of_gg_ + (lp_ + 1);    // F_nu[0..ln]
    of_psi_ = of_fn_ + (ln_ + 1);   // Psi[q][l]
    size_ = of_psi_ + nq_ * (lm_ + 1);
  }

  std::size_t size() const { return size_; }
  std::size_t lmax_photon() const { return lg_; }
  std::size_t lmax_polarization() const { return lp_; }
  std::size_t lmax_neutrino() const { return ln_; }
  std::size_t n_q() const { return nq_; }
  std::size_t lmax_massive_nu() const { return lm_; }

  // Scalar slots.
  static constexpr std::size_t a = 0;
  static constexpr std::size_t eta = 1;
  static constexpr std::size_t h = 2;
  static constexpr std::size_t delta_c = 3;
  static constexpr std::size_t delta_b = 4;
  static constexpr std::size_t theta_b = 5;
  static constexpr std::size_t delta_g = 6;
  static constexpr std::size_t theta_g = 7;

  /// F_gamma[l] for l >= 2.
  std::size_t fg(std::size_t l) const { return of_fg_ + (l - 2); }
  /// G_gamma[l] for l >= 0.
  std::size_t gg(std::size_t l) const { return of_gg_ + l; }
  /// F_nu[l] for l >= 0.
  std::size_t fn(std::size_t l) const { return of_fn_ + l; }
  /// Psi[iq][l].
  std::size_t psi(std::size_t iq, std::size_t l) const {
    return of_psi_ + iq * (lm_ + 1) + l;
  }

 private:
  std::size_t lg_, lp_, ln_, nq_, lm_;
  std::size_t of_fg_ = 0, of_gg_ = 0, of_fn_ = 0, of_psi_ = 0, size_ = 0;
};

}  // namespace plinger::boltzmann
