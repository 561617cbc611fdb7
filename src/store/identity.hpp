#pragma once

/// Run identity: a 64-bit hash over everything that determines the
/// numerical content of a mode's result — the cosmological model, the
/// perturbation configuration, the k-grid, and the physics fields of the
/// tag-1 run setup (tau_end, lmax_cap).  A checkpoint journal stamped
/// with one identity may only be resumed by a run with the same
/// identity: same physics, bitwise the same results.
///
/// The issue order is deliberately NOT hashed — scheduling policy
/// changes which mode is computed when, never what a mode's result is
/// (the driver-equivalence sweep holds this bitwise), so a store written
/// largest-first may be resumed natural-order and vice versa.
///
/// The canonical producer of these inputs is parallel::store_identity()
/// (plinger/driver.hpp): the drivers stamp journals with it, and
/// run::RunPlan::identity() calls it with the exact values its execute()
/// hands the driver.
/// tests/run/test_equivalence.cpp pins both the agreement with the
/// legacy hand-rolled wiring and the hash value itself, so journals
/// written by pre-RunConfig entry points keep resuming.

#include <cstddef>
#include <cstdint>
#include <span>

namespace plinger::cosmo {
struct CosmoParams;
}
namespace plinger::boltzmann {
struct PerturbationConfig;
}

namespace plinger::store {

struct RunIdentity {
  std::uint64_t value = 0;

  friend bool operator==(const RunIdentity&, const RunIdentity&) = default;
};

/// Hash the physics inputs of a run.  k_grid is the ascending
/// integration grid (KSchedule::k_grid()); tau_end and lmax_cap are the
/// RunSetup fields that reach the integrator.
RunIdentity run_identity(const cosmo::CosmoParams& params,
                         const boltzmann::PerturbationConfig& cfg,
                         std::span<const double> k_grid, double tau_end,
                         double lmax_cap);

/// Version of the line-of-sight record family folded into the LOS
/// identity: 4, the towers each worker projected to l_max.  Journals of
/// the earlier, sample-bearing versions stamp differently and are
/// refused at open, their bytes untouched.
inline constexpr std::uint64_t kLosRecordVersion = 4;

/// The line-of-sight inputs that shape a solver=los run's records: the
/// short-hierarchy size every request is pinned to, the shared source
/// sample times and the l_max the towers are projected to.  Hashed on
/// top of the base identity so an LOS journal can never cross-resume
/// with a hierarchy journal (or with an LOS journal of different
/// sampling, projection or record version).
struct LosIdentity {
  std::size_t lmax_evolve = 0;
  std::span<const double> sample_taus;
  std::size_t l_max = 0;  ///< projected towers: l = 0..l_max
  /// solver=auto routing threshold: modes with k below this evolve the
  /// full hierarchy inside an LOS journal.  0 = pure LOS.
  double k_crossover = 0.0;
};

/// Identity of a line-of-sight run: the base hash over the same inputs,
/// extended with an LOS salt and the LosIdentity fields.  The base
/// overload is untouched, so every existing hierarchy journal keeps its
/// stamp and keeps resuming.
RunIdentity run_identity(const cosmo::CosmoParams& params,
                         const boltzmann::PerturbationConfig& cfg,
                         std::span<const double> k_grid, double tau_end,
                         double lmax_cap, const LosIdentity& los);

}  // namespace plinger::store
