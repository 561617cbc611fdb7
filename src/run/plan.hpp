#pragma once

/// RunPlan — the executable form of a RunConfig: the materialized
/// k-schedule, perturbation configuration, and RunSetup, bound to a
/// shared RunContext, with one execute() that dispatches to the chosen
/// driver.
///
/// Construction is where the config meets the physics: the `cl` grid
/// needs the conformal age, so the grid is materialized here (from the
/// context) rather than in RunConfig.  The assembled RunSetup is
/// exposed mutably so benches and tests can attach what the declarative
/// surface does not cover (fault-injection plans, custom stop hooks)
/// before execute().

#include <memory>
#include <span>
#include <vector>

#include "boltzmann/config.hpp"
#include "plinger/driver.hpp"
#include "plinger/schedule.hpp"
#include "run/context.hpp"
#include "store/identity.hpp"

namespace plinger::run {

/// The ascending k-grid a config names at conformal age tau0 (only the
/// `cl` grid reads tau0).
std::vector<double> materialize_grid(const RunConfig& cfg, double tau0);

/// Deterministic relative cost (arbitrary units) of evolving `k_grid`
/// under `cfg` at conformal age tau0.  run_batch() issues runs largest
/// first on it, mirroring the paper's largest-k-first inside one run.
double estimated_cost(const RunConfig& cfg, std::span<const double> k_grid,
                      double tau0);

class RunPlan {
 public:
  /// Materializes grid, schedule, perturbation config, and RunSetup
  /// (including setup().thermo = ctx->thermo()).  The context must be
  /// the one built from cfg's cosmology (run_batch may share it across
  /// configs with equal cosmology_key()).
  RunPlan(RunConfig cfg, std::shared_ptr<const RunContext> ctx);

  const RunConfig& config() const { return cfg_; }
  const RunContext& context() const { return *ctx_; }
  const parallel::KSchedule& schedule() const { return schedule_; }
  const boltzmann::PerturbationConfig& perturbation() const {
    return pcfg_;
  }

  /// The assembled run setup; mutable so callers can attach host-side
  /// extras (setup().inject, setup().store.stop_after, ...) before
  /// execute().  tau_end, lmax_cap, the LOS shaping and the
  /// store/trace/fault fields are already filled from the config.
  parallel::RunSetup& setup() { return setup_; }
  const parallel::RunSetup& setup() const { return setup_; }

  /// The checkpoint-store identity this plan's execution stamps on (and
  /// requires of) a journal — parallel::store_identity() over the same
  /// materialized quantities execute() hands the driver, so a journal
  /// written by a pre-run-layer entry point with the same physics still
  /// matches.
  store::RunIdentity identity() const;

  /// Run the configured driver over the schedule.  Respects everything
  /// in setup(), including caller mutations.  With transport = tcp this
  /// is the master side: it listens on cfg().tcp_listen, blocks in
  /// accept_workers() until cfg().workers plinger_worker processes have
  /// joined (or the accept window closes), and runs the same recovery
  /// machinery as the in-process threads driver.
  parallel::RunOutput execute() const;

  /// Worker side of a transport = tcp run: connect to cfg().tcp_connect
  /// and serve the remote master until stopped (or until the master
  /// link drops).  The config must carry the same physics surface as
  /// the master's: the worker joins only a run whose broadcast identity
  /// is its own identity() and otherwise throws plinger::Error.  This
  /// is what the plinger_worker example binary calls.
  void execute_worker() const;

 private:
  RunConfig cfg_;
  std::shared_ptr<const RunContext> ctx_;
  boltzmann::PerturbationConfig pcfg_;
  parallel::KSchedule schedule_;
  parallel::RunSetup setup_;
};

/// The one-call form: context + plan + execute for a single config.
parallel::RunOutput execute_run(const RunConfig& cfg);

}  // namespace plinger::run
