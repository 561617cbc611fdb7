// bench_tca: accuracy and cost versus the tight-coupling threshold.
//
// The tight-coupling expansion is what makes the early-time photon-
// baryon system integrable with the paper's explicit DVERK integrator:
// switching too late loses accuracy (the expansion degrades), too early
// costs steps (the integrator must resolve 1/opacity).  Since the run
// layer exposes the threshold as the `tca_eps` key, this bench is a
// thin shell over it: one shared context, one RunConfig per threshold,
// runs ending just past recombination, and the probe is each mode's
// final delta_gamma against a tight-tolerance early-exit reference.
//
// Usage: bench_tca [--smoke] [--out FILE]
//   --smoke   fewer modes; writes BENCH_tca.json to the cwd (ctest
//             wiring, `check-accuracy` target)
//   --out     explicit output path (overrides both defaults)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "io/bench_json.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"

using namespace plinger;

int main(int argc, char** argv) {
  const io::BenchArgs args = io::parse_bench_args(argc, argv, "tca");
  const bool smoke = args.smoke;

  run::RunConfig base;
  base.grid = "linear";
  base.k_min = 0.02;
  base.k_max = 0.08;
  base.n_k = smoke ? 2 : 4;
  base.lmax_cap = 24;
  base.lmax_photon = 24;
  base.lmax_polarization = 12;
  base.lmax_neutrino = 12;
  base.driver = "serial";

  const auto ctx = run::make_context(base);
  const double tau_star = ctx->recombination().tau_star();
  base.tau_end = tau_star + 20.0;  // probe just past the visibility peak
  std::printf("== tight-coupling threshold sweep ==\n");
  std::printf("probe: delta_gamma(k, tau* + 20) at tau* = %.1f Mpc, "
              "%zu modes\n\n",
              tau_star, base.n_k);

  // Reference: very conservative (early-exit) threshold at tight
  // integrator tolerance.
  run::RunConfig ref_cfg = base;
  ref_cfg.rtol = 1e-8;
  ref_cfg.tca_eps = 5e-4;
  const auto ref = run::RunPlan(ref_cfg, ctx).execute();

  io::BenchReport report("tca");
  std::printf("   tca_eps     steps    CPU [s]    worst rel. error\n");
  for (double eps : {2e-2, 8e-3, 2e-3, 5e-4}) {
    run::RunConfig cfg = base;
    cfg.rtol = 1e-6;
    cfg.tca_eps = eps;
    const auto out = run::RunPlan(cfg, ctx).execute();

    long steps = 0;
    double cpu = 0.0, worst = 0.0;
    for (const auto& [ik, r] : out.results) {
      steps += r.stats.n_accepted;
      cpu += r.cpu_seconds;
      const auto it = ref.results.find(ik);
      if (it == ref.results.end()) {
        std::fprintf(stderr, "FAIL: mode %zu missing from reference\n",
                     ik);
        return 1;
      }
      const double a = it->second.final_state.delta_g;
      const double b = r.final_state.delta_g;
      worst = std::max(worst, std::abs(b - a) / std::abs(a));
    }
    std::printf("   %7.0e    %6ld    %7.3f    %.2e\n", eps, steps, cpu,
                worst);

    char name[32];
    std::snprintf(name, sizeof name, "eps_%g", eps);
    report.add(name)
        .label("tca_eps", std::to_string(eps))
        .metric("tca_eps", eps)
        .metric("n_modes", static_cast<double>(out.results.size()))
        .metric("steps", static_cast<double>(steps))
        .metric("cpu_seconds", cpu)
        .metric("worst_rel_error_delta_g", worst);

    // The default threshold must hold the historical 1e-3-level error;
    // a regression here means the TCA switch moved, not the bench.
    if (eps == 8e-3 && !(worst < 5e-3)) {
      std::fprintf(stderr,
                   "FAIL: default tca_eps error %.2e exceeds 5e-3\n",
                   worst);
      return 1;
    }
  }
  std::printf("\n(early exit costs steps; the default 8e-3 keeps the "
              "error at the 1e-3 level)\n");

  const std::string written = report.write_file(args.out);
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
