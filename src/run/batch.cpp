#include "run/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"

namespace plinger::run {

namespace {

/// Pre-context cost estimate for issue ordering.  The real cost needs
/// the conformal age (contexts are built lazily, per cosmology, by the
/// jobs themselves), so it is taken at the Einstein-de-Sitter age
/// tau0 ~ 2/H0 — relative ordering is all that matters here.
double cost_hint(const RunConfig& cfg) {
  const double tau0 =
      2.0 * plinger::constants::hubble_distance_mpc / cfg.h;
  return estimated_cost(cfg, materialize_grid(cfg, tau0), tau0);
}

}  // namespace

BatchOutput run_batch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& opts) {
  PLINGER_REQUIRE(opts.executors >= 1, "run_batch: executors must be >= 1");
  const std::size_t n = jobs.size();

  // Up-front validation: bad configs and store-path collisions fail the
  // whole batch before any work starts.
  std::map<std::string, std::size_t> store_paths;
  for (std::size_t j = 0; j < n; ++j) {
    jobs[j].config.validate();
    if (jobs[j].config.store.empty()) continue;
    const auto [it, fresh] = store_paths.emplace(jobs[j].config.store, j);
    PLINGER_REQUIRE(fresh, "run_batch: jobs '" + jobs[it->second].name +
                               "' and '" + jobs[j].name +
                               "' share store path " + jobs[j].config.store);
  }

  BatchOutput out;
  out.outputs.resize(n);
  out.report.jobs.resize(n);

  // Largest job first, by the pre-context estimate.
  std::vector<std::size_t> issue(n);
  std::iota(issue.begin(), issue.end(), std::size_t{0});
  std::vector<double> hint(n);
  for (std::size_t j = 0; j < n; ++j) hint[j] = cost_hint(jobs[j].config);
  std::stable_sort(issue.begin(), issue.end(),
                   [&](std::size_t a, std::size_t b) {
                     return hint[a] > hint[b];
                   });

  ContextCache contexts;  // one build per cosmology, shared by its jobs
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(n);

  const auto worker = [&] {
    for (;;) {
      const std::size_t at = cursor.fetch_add(1);
      if (at >= n) return;
      const std::size_t j = issue[at];
      BatchJobReport& report = out.report.jobs[j];
      report.name = jobs[j].name;
      try {
        report.cosmology_key = RunContext::cosmology_key(jobs[j].config);
        ContextCache::Lookup ctx = contexts.get(jobs[j].config);
        report.context_cache_hit = ctx.reused;
        const RunPlan plan(jobs[j].config, std::move(ctx.context));
        report.estimated_cost = estimated_cost(
            jobs[j].config, plan.schedule().k_grid(),
            plan.context().conformal_age());
        report.store_identity = plan.identity().value;
        parallel::RunOutput result = plan.execute();
        report.wallclock_seconds = result.wallclock_seconds;
        report.n_modes = result.results.size();
        out.outputs[j] = std::move(result);
      } catch (...) {
        errors[j] = std::current_exception();
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t pool =
      std::min<std::size_t>(static_cast<std::size_t>(opts.executors), n);
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) threads.emplace_back(worker);
  }
  out.report.wallclock_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (std::size_t j = 0; j < n; ++j) {
    if (errors[j]) std::rethrow_exception(errors[j]);
  }

  std::size_t hits = 0;
  double busy = 0.0;
  for (const BatchJobReport& r : out.report.jobs) {
    hits += r.context_cache_hit ? 1u : 0u;
    busy += r.wallclock_seconds;
  }
  out.report.context_cache_hits = hits;
  out.report.n_contexts_built = n - hits;
  out.report.pool_utilization =
      out.report.wallclock_seconds > 0.0
          ? busy / (out.report.wallclock_seconds *
                    static_cast<double>(pool == 0 ? 1 : pool))
          : 0.0;
  return out;
}

}  // namespace plinger::run
