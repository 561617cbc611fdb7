#pragma once

/// RunContext — the per-cosmology substrate of a run, built exactly once
/// and shared read-only.
///
/// Background (which owns the NuDensity tables), Recombination, and the
/// fused ThermoCache are the expensive, immutable, cosmology-determined
/// objects every driver call needs.  A RunContext builds them once from
/// a RunConfig; RunPlan wires the cache into RunSetup::thermo so the
/// run's one mode runner shares it, and a ContextCache keeps whole
/// contexts by cosmology_key() so N runs over one cosmology (run_batch,
/// the serve daemon) pay the construction cost exactly once.

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "boltzmann/mode_evolution.hpp"
#include "cosmo/background.hpp"
#include "cosmo/recombination.hpp"
#include "cosmo/thermo_cache.hpp"
#include "run/config.hpp"

namespace plinger::run {

class RunContext {
 public:
  /// Materializes the cosmology and builds Background, Recombination,
  /// and ThermoCache.  Throws InvalidArgument on an invalid model.
  explicit RunContext(const RunConfig& cfg);

  // Immovable: Recombination and the cache reference the Background
  // member; sharing is by shared_ptr<const RunContext>.
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  const cosmo::CosmoParams& params() const { return bg_.params(); }
  const cosmo::Background& background() const { return bg_; }
  const cosmo::Recombination& recombination() const { return rec_; }
  std::shared_ptr<const cosmo::ThermoCache> thermo() const {
    return thermo_;
  }
  double conformal_age() const { return bg_.conformal_age(); }

  /// An evolver over this context's shared cache, for callers that
  /// integrate modes directly (sampled-output runs like the potential
  /// movie) rather than through a driver.  The context must outlive it.
  boltzmann::ModeEvolver make_evolver(
      const boltzmann::PerturbationConfig& cfg) const {
    return {bg_, rec_, cfg, thermo_};
  }

  /// store::cosmology_key of the cosmology and recombination options
  /// this config materializes — exactly what determines this context's
  /// contents.  Two configs with equal keys may share a context;
  /// differing k-grids, drivers, or store options do not affect it.
  static std::uint64_t cosmology_key(const RunConfig& cfg);

 private:
  cosmo::Background bg_;
  cosmo::Recombination rec_;
  std::shared_ptr<const cosmo::ThermoCache> thermo_;
};

/// Build a shared context (the ContextCache unit).
std::shared_ptr<const RunContext> make_context(const RunConfig& cfg);

/// The one build-once owner of RunContexts, behind run_batch and the
/// serve daemon, keyed by RunContext::cosmology_key.  The first asker of
/// a key builds outside the lock; concurrent askers of that key wait on
/// the same build and learn that they reused it.  A build that throws
/// reaches every waiter and leaves nothing cached.  Inserting a key past
/// capacity evicts the oldest-inserted one (hits do not refresh it); a
/// context in use lives on through its shared_ptr.
class ContextCache {
 public:
  /// The default capacity never evicts.
  explicit ContextCache(std::size_t capacity = SIZE_MAX)
      : capacity_(capacity) {}

  struct Lookup {
    std::shared_ptr<const RunContext> context;
    bool reused = false;  ///< another caller built (or is building) it
  };

  /// The context of cfg's cosmology; rethrows what its build threw.
  Lookup get(const RunConfig& cfg);

  /// Keys held, built or building.
  std::size_t size() const;

 private:
  using Build = std::shared_future<std::shared_ptr<const RunContext>>;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Build> builds_;
  std::vector<std::uint64_t> order_;  ///< keys, oldest insertion first
};

}  // namespace plinger::run
