// bench_batch: batched multi-cosmology execution vs one-at-a-time runs.
//
// run_batch() promises three things worth measuring: per-cosmology
// contexts (Background/Recombination/ThermoCache) are built once and
// shared across jobs, the executor pool stays busy by issuing the
// largest job first, and none of that changes a single bit of any
// result.  This bench runs a small model-comparison sweep (two
// cosmologies x three grid variants) both ways and reports
//
//   * sequential wallclock (independent execute_run per job, own
//     context each) vs batch wallclock,
//   * the context-cache hit rate and number of contexts built,
//   * executor-pool utilization,
//   * a bitwise comparison of every mode against the sequential runs.
//
// Usage: bench_batch [--smoke] [--out FILE]
//   --smoke   reduced grids/horizon; writes BENCH_batch.json to the cwd
//             (ctest wiring, `check-run` target)
//   --out     explicit output path (overrides both defaults)

#include <cstdio>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "io/bench_json.hpp"
#include "run/batch.hpp"
#include "run/plan.hpp"

using namespace plinger;

namespace {

bool modes_identical(const parallel::RunOutput& a,
                     const parallel::RunOutput& b) {
  if (a.results.size() != b.results.size()) return false;
  for (const auto& [ik, ra] : a.results) {
    const auto it = b.results.find(ik);
    if (it == b.results.end()) return false;
    const auto& rb = it->second;
    if (ra.k != rb.k || ra.f_gamma != rb.f_gamma ||
        ra.final_state.delta_m != rb.final_state.delta_m) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const io::BenchArgs args = io::parse_bench_args(argc, argv, "batch");
  const bool smoke = args.smoke;

  // Two cosmologies x three grid variants, serial driver per job (the
  // pool parallelism lives at the job level here).
  std::vector<run::BatchJob> jobs;
  for (const char* preset : {"scdm", "lcdm"}) {
    for (int variant = 0; variant < 3; ++variant) {
      run::RunConfig cfg;
      cfg.set_preset(preset);
      cfg.grid = "linear";
      cfg.k_min = 0.002;
      cfg.k_max = (smoke ? 0.015 : 0.05) + 0.005 * variant;
      cfg.n_k = smoke ? 4 : 16;
      cfg.lmax_photon = 24;
      cfg.lmax_polarization = 12;
      cfg.lmax_neutrino = 12;
      cfg.rtol = 1e-5;
      cfg.tau_end = smoke ? 600.0 : 2000.0;
      cfg.lmax_cap = 24;
      cfg.driver = "serial";
      char name[32];
      std::snprintf(name, sizeof name, "%s-g%d", preset, variant);
      jobs.push_back({cfg, name});
    }
  }

  std::printf("== batch bench: %zu jobs over 2 cosmologies ==\n",
              jobs.size());

  // Sequential reference: every job builds its own context.
  double t0 = wallclock_seconds();
  std::vector<parallel::RunOutput> seq;
  seq.reserve(jobs.size());
  for (const run::BatchJob& job : jobs) {
    seq.push_back(run::execute_run(job.config));
  }
  const double t_seq = wallclock_seconds() - t0;

  // Batched: shared contexts, two executors, largest job first.
  run::BatchOptions opts;
  opts.executors = 2;
  t0 = wallclock_seconds();
  const auto batch = run::run_batch(jobs, opts);
  const double t_batch = wallclock_seconds() - t0;

  bool identical = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!modes_identical(seq[j], batch.outputs[j])) {
      std::fprintf(stderr, "job %s: batch result differs from "
                           "sequential run\n",
                   jobs[j].name.c_str());
      identical = false;
    }
  }

  const auto& rep = batch.report;
  const double hit_rate =
      jobs.empty() ? 0.0
                   : static_cast<double>(rep.context_cache_hits) /
                         static_cast<double>(jobs.size());
  std::printf("sequential     %8.3f s  (%zu context builds)\n", t_seq,
              jobs.size());
  std::printf("batched        %8.3f s  (%zu built, %zu cache hits, "
              "utilization %.2f)\n",
              t_batch, rep.n_contexts_built, rep.context_cache_hits,
              rep.pool_utilization);
  std::printf("speedup        %8.2fx   bitwise identical: %s\n",
              t_batch > 0.0 ? t_seq / t_batch : 0.0,
              identical ? "yes" : "NO");
  std::printf("\nper-job accounting (issue order was largest "
              "estimated cost first):\n");
  for (const auto& j : rep.jobs) {
    std::printf("  %-10s cost %10.3e  wall %7.3f s  modes %3zu  %s\n",
                j.name.c_str(), j.estimated_cost, j.wallclock_seconds,
                j.n_modes, j.context_cache_hit ? "cache hit" : "built");
  }

  io::BenchReport report("batch");
  report.add("sweep")
      .metric("n_jobs", static_cast<double>(jobs.size()))
      .metric("sequential_seconds", t_seq)
      .metric("batch_seconds", t_batch)
      .metric("speedup", t_batch > 0.0 ? t_seq / t_batch : 0.0)
      .metric("contexts_built", static_cast<double>(rep.n_contexts_built))
      .metric("context_cache_hits",
              static_cast<double>(rep.context_cache_hits))
      .metric("context_cache_hit_rate", hit_rate)
      .metric("pool_utilization", rep.pool_utilization)
      .metric("bitwise_identical", identical ? 1.0 : 0.0);

  const std::string written = report.write_file(args.out);
  std::printf("wrote %s\n", written.c_str());
  return identical ? 0 : 1;
}
