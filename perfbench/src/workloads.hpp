#pragma once

#include "common.hpp"

namespace perfbench {

/// hierarchy_mdm and auto_lcdm: a RunConfig taken to checked,
/// COBE-normalised C_l through RunContext, RunPlan::execute() and
/// make_spectra(), repeated for the run's time budget.
Result run_batch(const Options& opt);

/// serve_mcmc: two closed-loop MCMC chains against an in-process
/// spectrum daemon that restarts over its journal directory mid-log.
Result run_serve_mcmc(const Options& opt);

/// The serve_mcmc request log alone (seed, digest, lattice and cache
/// sizes) as one JSON line; the self-test checks it is seeded.
void print_serve_log(const Options& opt);

}  // namespace perfbench
