#pragma once

/// Evolution of a single k-mode from deep in the radiation era to the
/// present — the unit of work a PLINGER worker performs for one
/// wavenumber.

#include <cstdint>
#include <memory>
#include <vector>

#include "boltzmann/equations.hpp"
#include "math/ode.hpp"

namespace plinger::boltzmann {

/// Snapshot of a mode at one conformal time.
struct TransferSample {
  double tau = 0.0, a = 0.0;
  double delta_c = 0.0, delta_b = 0.0, delta_g = 0.0, delta_nu = 0.0;
  double delta_m = 0.0;  ///< density-weighted matter overdensity
  double theta_b = 0.0, theta_g = 0.0;
  double eta = 0.0, h = 0.0;
  double phi = 0.0, psi = 0.0;  ///< conformal Newtonian potentials
  double alpha = 0.0;  ///< gauge shift (h'+6 eta')/(2k^2), for transforms
  double pi_pol = 0.0;  ///< polarization source Pi = F2 + G0 + G2
};

/// Everything a worker reports back to the master for one wavenumber.
/// A line-of-sight evolution also returns source samples; the drivers
/// project them onto F_l/G_l towers before the result leaves the worker
/// (plinger/driver.hpp), so a reported result carries towers only.
struct ModeResult {
  double k = 0.0;
  std::size_t lmax = 0;
  /// Photon temperature moments F_gamma[0..lmax] at tau0
  /// (F0 = delta_g, F1 = 4 theta_g/(3k)); Theta_l = F_l/4 feeds C_l.
  std::vector<double> f_gamma;
  /// Photon polarization moments G_gamma[0..lmax] at tau0.
  std::vector<double> g_gamma;
  TransferSample final_state;            ///< at tau0
  std::vector<TransferSample> samples;   ///< at the requested times
  double tau_init = 0.0, tau_switch = 0.0, tau_end = 0.0;
  /// The integration's work.  The tag-4 header carries n_accepted and
  /// n_rhs but no rejected count (plinger/records.hpp), so a result that
  /// crossed the wire (threads and tcp drivers) or came back from a
  /// journal has n_rejected = 0.
  plinger::math::OdeStats stats;
  std::uint64_t flops = 0;      ///< estimated flop count of the evolution
  /// Thread CPU of the evolution alone, measured inside
  /// ModeEvolver::evolve; a line-of-sight mode's projection is not in it.
  double cpu_seconds = 0.0;
};

/// Work request for one wavenumber.
struct EvolveRequest {
  double k = 0.0;
  /// Photon hierarchy size; 0 selects lmax_photon_for_k(k, tau0).
  std::size_t lmax_photon = 0;
  /// Conformal times at which to record TransferSamples, in any order;
  /// ModeResult::samples come back ascending.  A time within 1e-12 of
  /// tau_switch (for a mode that starts tightly coupled) or of tau_end,
  /// tau_end itself included, is recorded once at that boundary's tau,
  /// from the state after the tight-coupling handoff.  Other times
  /// inside (tau_init, tau_end) are recorded where requested, times
  /// within 1e-12 of each other once; the rest are ignored.
  std::vector<double> sample_taus;
};

/// Integrates single modes.  Holds references to the shared immutable
/// background/thermodynamics; evolve() is const and keeps its per-mode
/// state local, so one evolver serves every worker thread of a run (the
/// drivers' mode runner).
class ModeEvolver {
 public:
  /// Builds a private ThermoCache for this evolver (convenience for
  /// single-evolver callers; drivers share one cache via the overload).
  ModeEvolver(const cosmo::Background& bg, const cosmo::Recombination& rec,
              const PerturbationConfig& cfg);

  /// Shares a prebuilt per-run cache across workers.  `cache` must have
  /// been built from the same (bg, rec); nullptr selects the direct
  /// spline path (the pre-cache reference implementation).
  ModeEvolver(const cosmo::Background& bg, const cosmo::Recombination& rec,
              const PerturbationConfig& cfg,
              std::shared_ptr<const cosmo::ThermoCache> cache);

  /// Evolve one wavenumber to tau_end (default: the conformal age).
  ModeResult evolve(const EvolveRequest& req, double tau_end = 0.0) const;

  const cosmo::Background& background() const { return bg_; }
  const cosmo::Recombination& recombination() const { return rec_; }
  const cosmo::ThermoCache* thermo_cache() const { return cache_.get(); }

 private:
  const cosmo::Background& bg_;
  const cosmo::Recombination& rec_;
  PerturbationConfig cfg_;
  std::shared_ptr<const cosmo::ThermoCache> cache_;
};

}  // namespace plinger::boltzmann
