// linger_cli: a LINGER-style batch driver.
//
// Reads a small key=value parameter file (or uses built-in defaults),
// runs the solver over a k-grid, and writes the original LINGER output
// pair: a human-readable ASCII table per wavenumber (the Appendix-A
// "unit_1" stream of 21-value records) and a Fortran-unformatted binary
// file of the photon moment arrays ("unit_2") that era tools could read.
//
// Usage:
//   linger_cli [params.ini]
//
// The recognized keys are the run-layer RunConfig surface — see the
// generated reference table in docs/operations.md (or
// run::config_reference_markdown()).  Unrecognized keys are warned
// about, not silently ignored; out-of-range values are rejected with
// the offending key named.
//
// With trace=1 the run records per-mode/per-worker spans and protocol
// messages; the CLI then prints the Figure-1 style per-worker busy/idle
// report and writes a chrome://tracing-loadable JSON timeline.
//
// With store=path the run checkpoints every completed mode to a
// crash-safe journal; rerunning the same parameter file resumes from it,
// computing only the missing modes.
//
// With fault_timeout=SECONDS the master arms a per-mode deadline
// (scaled by each mode's k / k_max) and reassigns modes whose
// worker stalls or dies; max_retries bounds the integration-failure
// requeues.  A run that lost workers or gave up on modes prints a
// DEGRADED summary line but still writes every result it has — see
// docs/operations.md for the recovery runbook.

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "io/params.hpp"
#include "plinger/trace.hpp"
#include "run/config.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"

namespace {

/// Build, run and report one parsed config; returns the exit status.
/// Anything the run refuses (a journal of another run, a busy or
/// corrupt journal, a projection table it cannot hold) throws out of
/// here to main, which reports it and exits 1.
int run_and_report(const plinger::run::RunConfig& cfg) {
  using namespace plinger;

  const auto ctx = run::make_context(cfg);
  std::printf("linger_cli: %s\n", ctx->params().summary().c_str());

  const run::RunPlan plan(cfg, ctx);
  std::printf("running %zu modes on %d workers...\n",
              plan.schedule().size(), cfg.workers);
  const auto out = plan.execute();
  if (!cfg.store.empty()) {
    // One-line resume summary; the trace report's completed-mode count
    // (loaded zero-cost spans + computed spans) agrees with this.
    std::printf("store %s: %zu modes loaded, %zu computed, %zu total\n",
                cfg.store.c_str(), out.n_modes_loaded,
                out.n_modes_computed, out.results.size());
  }
  std::printf("done in %.1f s (%.0f Mflop sustained); writing "
              "linger_unit1.txt / linger_unit2.bin\n",
              out.wallclock_seconds, out.flops_per_second() / 1e6);

  const auto written = run::write_unit_files(out, "linger_unit1.txt",
                                             "linger_unit2.bin");
  std::printf("wrote %zu rows + %zu binary records\n", written.rows,
              written.records);

  if (out.trace) {
    // The Figure-1 quantities, from the recorded per-mode spans.
    const auto report = parallel::make_run_report(*out.trace);
    std::printf("\n");
    parallel::write_ascii_report(std::cout, report);
    std::ofstream tj(cfg.trace_json);
    if (tj.is_open()) {
      parallel::write_chrome_trace(tj, *out.trace);
      std::printf("wrote %s (load in chrome://tracing)\n",
                  cfg.trace_json.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", cfg.trace_json.c_str());
    }
  }
  if (out.completed_degraded) {
    // The run survived faults but is not pristine: say exactly what was
    // lost so the operator can decide between rerunning (with store=,
    // only the missing modes are recomputed) and accepting the output.
    std::printf("DEGRADED: %zu workers lost, %zu modes reassigned, "
                "%zu quarantined, %zu failed (%zu/%zu modes delivered)\n",
                out.n_workers_lost, out.n_modes_reassigned,
                out.master.quarantined_ik.size(),
                out.master.failed_ik.size(), out.results.size(),
                plan.schedule().size());
  }
  if (!out.master.failed_ik.empty()) {
    std::printf("WARNING: %zu wavenumbers failed integration\n",
                out.master.failed_ik.size());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plinger;

  io::KeyValueMap kv;
  if (argc > 1) {
    try {
      kv = io::read_params_file(argv[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "linger_cli: %s\n", e.what());
      return 1;
    }
  }
  run::ConfigParse parsed;
  try {
    parsed = run::parse_config(kv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "linger_cli: %s\n", e.what());
    return 1;
  }
  for (const std::string& key : parsed.unknown_keys) {
    const std::string hint = run::config_key_suggestion(key);
    if (hint.empty()) {
      std::fprintf(stderr, "linger_cli: warning: unrecognized key '%s'\n",
                   key.c_str());
    } else {
      std::fprintf(stderr,
                   "linger_cli: warning: unrecognized key '%s' (did you "
                   "mean '%s'?)\n",
                   key.c_str(), hint.c_str());
    }
  }
  try {
    return run_and_report(parsed.config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "linger_cli: %s\n", e.what());
    return 1;
  }
}
