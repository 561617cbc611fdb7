#pragma once

/// run_batch — N configs, one executor pool, shared per-cosmology
/// contexts.
///
/// A parameter sweep (model comparison, convergence study, sigma-8
/// grid) runs many configs that differ only in grid or driver settings
/// over a handful of cosmologies.  run_batch() executes them on a small
/// pool of executor threads, sharing one unbounded ContextCache so each
/// distinct cosmology builds its Background/Recombination/ThermoCache
/// exactly once, and issuing jobs
/// largest-estimated-cost-first (the batch-level analogue of the
/// paper's largest-k-first).  Results are bitwise identical to running
/// each config independently: context sharing changes construction
/// count, never numerical content.

#include <cstdint>
#include <string>
#include <vector>

#include "plinger/driver.hpp"
#include "run/config.hpp"

namespace plinger::run {

/// One batch entry: a config plus a label for the report.
struct BatchJob {
  RunConfig config;
  std::string name;
};

struct BatchOptions {
  /// Executor threads running whole jobs concurrently.  Each job's own
  /// driver still uses config.workers internally, so total thread use
  /// is roughly executors x (workers + 1); 1 (the default) runs jobs
  /// sequentially but still shares cached contexts.
  int executors = 1;
};

/// Per-job accounting, in job order.
struct BatchJobReport {
  std::string name;
  std::uint64_t cosmology_key = 0;
  bool context_cache_hit = false;  ///< reused an earlier job's context
  double estimated_cost = 0.0;     ///< run::estimated_cost units
  double wallclock_seconds = 0.0;  ///< the job's driver wallclock
  std::size_t n_modes = 0;
  std::uint64_t store_identity = 0;
};

struct BatchReport {
  std::vector<BatchJobReport> jobs;  ///< in job order
  double wallclock_seconds = 0.0;    ///< whole-batch wall time
  std::size_t n_contexts_built = 0;  ///< distinct cosmologies
  std::size_t context_cache_hits = 0;
  /// Sum of job wallclocks / (batch wallclock x executors): how busy
  /// the executor pool stayed.
  double pool_utilization = 0.0;
};

struct BatchOutput {
  std::vector<parallel::RunOutput> outputs;  ///< in job order
  BatchReport report;
};

/// Execute every job.  Throws InvalidArgument up front when two jobs
/// share a non-empty store path (concurrent journal writers would
/// corrupt it) or a config fails validation; a job that throws
/// mid-flight propagates after the pool drains (first job in job
/// order wins).
BatchOutput run_batch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& opts = {});

}  // namespace plinger::run
