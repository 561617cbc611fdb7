// bench_integrator: the DOP853 core vs the paper's DVERK on the real
// Einstein-Boltzmann mode system, at matched tolerance.
//
// Two claims back the integrator=dop853 config key:
//
//   * RHS evaluations per mode.  An 8th-order pair takes far larger
//     steps than a 6(5) pair once rtol tightens; the sweep records
//     evals-per-mode and wallclock for both integrators across
//     rtol in {1e-6 ... 1e-10} at a low and a high wavenumber, and the
//     bench FAILS (exit 1) unless dop853 cuts RHS evals by >= 1.5x at
//     every rtol <= 1e-8 point.
//
//   * The sampling clamp.  DVERK answers EvolveRequest::sample_taus by
//     clamping steps onto them, so a dense transfer grid forces step
//     endpoints;
//     dop853's 7th-order dense output answers the same grid by
//     interpolation inside accepted steps.  The dense entries record
//     the eval counts for a transfer-function-scale sample grid both
//     ways.
//
// Usage: bench_integrator [--smoke] [--out FILE]
//   --smoke   reduced tower/sweep; writes BENCH_integrator.json to the
//             cwd (ctest wiring, `check-integrator` target)
//   --out     explicit output path (overrides both defaults)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "boltzmann/mode_evolution.hpp"
#include "common/timing.hpp"
#include "io/bench_json.hpp"
#include "run/config.hpp"
#include "run/context.hpp"

using namespace plinger;

namespace {

struct Measurement {
  std::uint64_t n_rhs = 0;
  std::uint64_t n_accepted = 0;
  std::uint64_t n_rejected = 0;
  double wall_seconds = 0.0;
};

/// One full mode evolution (TCA handoff included); wallclock is the
/// best of `reps` to shave scheduler noise off the record.
Measurement measure(const boltzmann::ModeEvolver& evolver,
                    const boltzmann::EvolveRequest& req, int reps) {
  Measurement m;
  m.wall_seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = wallclock_seconds();
    const boltzmann::ModeResult res = evolver.evolve(req);
    m.wall_seconds = std::min(m.wall_seconds, wallclock_seconds() - t0);
    m.n_rhs = res.stats.n_rhs;
    m.n_accepted = res.stats.n_accepted;
    m.n_rejected = res.stats.n_rejected;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const io::BenchArgs args = io::parse_bench_args(argc, argv, "integrator");
  const bool smoke = args.smoke;

  // Standard CDM background, fixed photon tower so both integrators
  // solve the identical ODE system at every point of the sweep.
  run::RunConfig base;  // scdm preset by default
  const auto ctx = run::make_context(base);
  const std::size_t lmax = smoke ? 32 : 96;
  const int reps = smoke ? 1 : 3;

  boltzmann::PerturbationConfig pcfg = base.perturbation();
  pcfg.lmax_photon = lmax;
  pcfg.lmax_polarization = smoke ? 8 : 24;
  pcfg.lmax_neutrino = smoke ? 8 : 24;

  const std::vector<double> rtols =
      smoke ? std::vector<double>{1e-6, 1e-8}
            : std::vector<double>{1e-6, 1e-7, 1e-8, 1e-9, 1e-10};
  const std::vector<std::pair<const char*, double>> ks = {
      {"k_low", 0.01}, {"k_high", 0.2}};

  io::BenchReport report("integrator");
  report.add("sweep")
      .metric("lmax_photon", static_cast<double>(lmax))
      .metric("n_rtol", static_cast<double>(rtols.size()))
      .metric("n_k", static_cast<double>(ks.size()))
      .metric("gate_rhs_reduction", 1.5)
      .metric("gate_rtol_max", 1e-8);

  std::printf("== integrator sweep: lmax_photon = %zu, reps = %d ==\n",
              lmax, reps);
  std::printf("   k        rtol       dverk evals  dop853 evals  "
              "reduction   wall speedup\n");

  double worst_tight_reduction = 1e30;
  for (const auto& [kname, k] : ks) {
    for (const double rtol : rtols) {
      pcfg.rtol = rtol;
      boltzmann::EvolveRequest req;
      req.k = k;
      req.lmax_photon = lmax;

      pcfg.integrator = boltzmann::IntegratorKind::dverk;
      const boltzmann::ModeEvolver ev_dverk(ctx->background(),
                                            ctx->recombination(), pcfg);
      const Measurement dv = measure(ev_dverk, req, reps);

      pcfg.integrator = boltzmann::IntegratorKind::dop853;
      const boltzmann::ModeEvolver ev_dop(ctx->background(),
                                          ctx->recombination(), pcfg);
      const Measurement dp = measure(ev_dop, req, reps);

      const double reduction =
          dp.n_rhs > 0 ? static_cast<double>(dv.n_rhs) /
                             static_cast<double>(dp.n_rhs)
                       : 0.0;
      const double wall_speedup =
          dp.wall_seconds > 0.0 ? dv.wall_seconds / dp.wall_seconds : 0.0;
      if (rtol <= 1e-8) {
        worst_tight_reduction = std::min(worst_tight_reduction, reduction);
      }
      std::printf("   %-7s  %.0e   %11llu  %12llu   %7.2fx   %9.2fx\n",
                  kname, rtol,
                  static_cast<unsigned long long>(dv.n_rhs),
                  static_cast<unsigned long long>(dp.n_rhs), reduction,
                  wall_speedup);

      char ename[64];
      std::snprintf(ename, sizeof ename, "%s_rtol_%.0e", kname, rtol);
      report.add(ename)
          .label("k_name", kname)
          .metric("k", k)
          .metric("rtol", rtol)
          .metric("n_rhs_dverk", static_cast<double>(dv.n_rhs))
          .metric("n_rhs_dop853", static_cast<double>(dp.n_rhs))
          .metric("n_accepted_dverk", static_cast<double>(dv.n_accepted))
          .metric("n_accepted_dop853", static_cast<double>(dp.n_accepted))
          .metric("n_rejected_dop853", static_cast<double>(dp.n_rejected))
          .metric("rhs_reduction", reduction)
          .metric("wall_seconds_dverk", dv.wall_seconds)
          .metric("wall_seconds_dop853", dp.wall_seconds)
          .metric("wall_speedup", wall_speedup);
    }
  }
  report.entries[0].metric("worst_rhs_reduction_at_tight_rtol",
                           worst_tight_reduction);

  // The clamp-removal exhibit: a transfer-function-scale sample grid.
  // DVERK must land a step endpoint on every time; dop853 interpolates.
  const std::size_t n_samples = smoke ? 40 : 240;
  const double tau0 = ctx->conformal_age();
  std::vector<double> taus;
  for (std::size_t i = 1; i <= n_samples; ++i) {
    taus.push_back(tau0 * 0.98 * static_cast<double>(i) /
                   static_cast<double>(n_samples));
  }
  std::printf("\ndense sampling (%zu times):\n", n_samples);
  pcfg.rtol = 1e-6;
  for (const auto& [kname, k] : ks) {
    boltzmann::EvolveRequest req;
    req.k = k;
    req.lmax_photon = lmax;
    req.sample_taus = taus;

    pcfg.integrator = boltzmann::IntegratorKind::dverk;
    const boltzmann::ModeEvolver ev_dverk(ctx->background(),
                                          ctx->recombination(), pcfg);
    const Measurement dv = measure(ev_dverk, req, reps);

    pcfg.integrator = boltzmann::IntegratorKind::dop853;
    const boltzmann::ModeEvolver ev_dop(ctx->background(),
                                        ctx->recombination(), pcfg);
    const Measurement dp = measure(ev_dop, req, reps);

    const double reduction =
        dp.n_rhs > 0 ? static_cast<double>(dv.n_rhs) /
                           static_cast<double>(dp.n_rhs)
                     : 0.0;
    std::printf("   %-7s  clamped dverk %llu evals, dense dop853 %llu "
                "evals (%.2fx)\n",
                kname, static_cast<unsigned long long>(dv.n_rhs),
                static_cast<unsigned long long>(dp.n_rhs), reduction);
    char ename[64];
    std::snprintf(ename, sizeof ename, "dense_sampling_%s", kname);
    report.add(ename)
        .label("k_name", kname)
        .metric("k", k)
        .metric("rtol", 1e-6)
        .metric("n_samples", static_cast<double>(n_samples))
        .metric("n_rhs_clamped_dverk", static_cast<double>(dv.n_rhs))
        .metric("n_rhs_dense_dop853", static_cast<double>(dp.n_rhs))
        .metric("rhs_reduction", reduction)
        .metric("wall_seconds_dverk", dv.wall_seconds)
        .metric("wall_seconds_dop853", dp.wall_seconds);
  }

  const std::string written = report.write_file(args.out);
  std::printf("\nwrote %s\n", written.c_str());

  // The headline gate: at tight tolerance the 8th-order core must cut
  // RHS work by at least 1.5x at every swept wavenumber.
  if (!(worst_tight_reduction >= 1.5)) {
    std::fprintf(stderr,
                 "FAIL: dop853 RHS-eval reduction %.2fx at rtol <= 1e-8 "
                 "is below the 1.5x gate\n",
                 worst_tight_reduction);
    return 1;
  }
  std::printf("gate: dop853 >= 1.5x RHS reduction at rtol <= 1e-8 "
              "(worst %.2fx) OK\n",
              worst_tight_reduction);
  return 0;
}
