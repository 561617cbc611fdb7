#pragma once

/// Run identity: a 64-bit hash over everything that determines the
/// numerical content of a mode's result — the cosmological model and
/// recombination options, the perturbation configuration, the k-grid,
/// and the run setup fields that reach the integrator (tau_end,
/// lmax_cap, the line-of-sight shaping).  It is the one definition of
/// "the same run": journals, the daemon's caches and worker admission
/// (the tag-1 broadcast carries it) all compare it.
///
/// The issue order is deliberately NOT hashed — scheduling policy
/// changes which mode is computed when, never what a mode's result is
/// (the driver-equivalence sweep holds this bitwise), so a store written
/// largest-first may be resumed natural-order and vice versa.
///
/// This file owns the field lists; cosmology_key() reuses them.  The
/// canonical producer of the inputs is parallel::store_identity()
/// (plinger/driver.hpp): the drivers stamp journals with it, and
/// run::RunPlan::identity() calls it with the exact values its execute()
/// hands the driver.
/// tests/run/test_equivalence.cpp pins both the agreement with the
/// legacy hand-rolled wiring and the hash value itself, so journals
/// written by pre-RunConfig entry points keep resuming.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "cosmo/recombination.hpp"

namespace plinger::cosmo {
struct CosmoParams;
}
namespace plinger::boltzmann {
struct PerturbationConfig;
}

namespace plinger::store {

struct RunIdentity {
  std::uint64_t value = 0;

  /// The value as two doubles, high 32 bits first, each an exact
  /// integer: how a journal header and the tag-1 broadcast carry it.
  std::array<double, 2> halves() const;
  /// The inverse of halves(); nullopt unless both are integers in
  /// [0, 2^32), so bytes from disk or a peer are never cast unchecked.
  static std::optional<RunIdentity> from_halves(double hi, double lo);
  /// "0x" followed by 16 hex digits.
  std::string hex() const;

  friend bool operator==(const RunIdentity&, const RunIdentity&) = default;
};

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
};

/// Hash the physics inputs of a run.  k_grid is the ascending
/// integration grid (KSchedule::k_grid()); tau_end and lmax_cap are the
/// RunSetup fields that reach the integrator.  The recombination options
/// are hashed only when they differ from Options{}, so every identity of
/// a run without reionization keeps its stamp.  A line-of-sight run
/// (`los` set) extends the base hash with an LOS salt and the
/// LosIdentity fields; the base is untouched, so every hierarchy journal
/// keeps its stamp and keeps resuming.
RunIdentity run_identity(const cosmo::CosmoParams& params,
                         const cosmo::Recombination::Options& rec,
                         const boltzmann::PerturbationConfig& cfg,
                         std::span<const double> k_grid, double tau_end,
                         double lmax_cap, const LosIdentity* los = nullptr);

/// Key of what a cosmology materializes (Background, Recombination,
/// ThermoCache): run_identity's cosmology and recombination fields.  An
/// in-memory cache key only; runs with equal keys may share a context.
std::uint64_t cosmology_key(const cosmo::CosmoParams& params,
                            const cosmo::Recombination::Options& rec);

}  // namespace plinger::store
