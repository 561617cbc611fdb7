// bench_los: the solver=los production fast path vs the full hierarchy.
//
// The paper integrates every photon moment to the present ("up to 10,000
// moments l ... 75 C90 CPU-hours"); the line-of-sight decomposition
// (CMBFAST, 1996) evolves a short hierarchy and projects the multipoles
// afterwards.  Since the run layer grew a `solver = los` switch, this
// bench is a thin shell over it: RunPlans sharing one context, the
// same cl-grid, and the driver's own per-mode CPU accounting.  It
// reports
//
//   * the headline: end-to-end wallclock, execute() + make_spectra(),
//     per solver, and its speedup over the hierarchy.  On the LOS route
//     execute() includes the workers' projection, and make_spectra()
//     only accumulates;
//   * per-mode evolution CPU speedup (hierarchy CPU / LOS CPU) grouped
//     by k-decade — the fast path's win grows with k tau0, so the
//     highest decade carries the per-mode claim (>= 10x), which
//     excludes projection;
//   * total evolution CPU and execute() wallclock each way;
//   * the worst relative C_l^TT deviation over l (the same comparison
//     the ctest `accuracy` gate pins per l, here at bench scale).
//
// Usage: bench_los [--smoke] [--out FILE]
//   --smoke   reduced l_max; writes BENCH_los.json to the cwd (ctest
//             wiring, `check-accuracy` target)
//   --out     explicit output path (overrides both defaults)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "io/bench_json.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"

using namespace plinger;

namespace {

struct DecadeCost {
  double cpu_hier = 0.0;
  double cpu_los = 0.0;
  double cpu_auto = 0.0;
  std::size_t n_modes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const io::BenchArgs args = io::parse_bench_args(argc, argv, "los");
  const bool smoke = args.smoke;

  // The hierarchy's per-mode cost grows ~ (k tau0)^2 (tower height x
  // step count) while LOS stays flat; the >= 10x per-mode claim lives at
  // the l ~ 1000 scale the paper's 10,000-moment anecdote points at.
  const std::size_t l_max = smoke ? 120 : 1000;
  run::RunConfig hier;
  hier.grid = "cl";
  hier.l_max = l_max;
  hier.points_per_osc = 2.0;
  hier.lmax_polarization = 12;
  hier.lmax_neutrino = 16;
  hier.rtol = 1e-5;
  hier.driver = "autotask";
  hier.workers = 4;

  run::RunConfig los = hier;
  los.solver = "los";
  los.los_accuracy = "standard";

  // The k-crossover router: LOS where it wins, hierarchy below the
  // crossover where the short-tower overhead made solver=los a
  // regression (the 0.14-0.8x decades in the committed record).
  run::RunConfig aut = hier;
  aut.solver = "auto";
  aut.los_accuracy = "standard";

  const auto ctx = run::make_context(hier);
  const run::RunPlan hier_plan(hier, ctx);
  const run::RunPlan los_plan(los, ctx);
  const run::RunPlan auto_plan(aut, ctx);
  std::printf("== solver=hierarchy vs solver=los vs solver=auto: "
              "l_max = %zu, %zu modes ==\n",
              l_max, hier_plan.schedule().size());

  // Each arm end to end: execute() (evolution, and on the LOS route the
  // workers' projection), then make_spectra() (accumulation).
  double t0 = wallclock_seconds();
  const auto hier_out = hier_plan.execute();
  const double wall_hier = wallclock_seconds() - t0;
  const auto spec_hier = run::make_spectra(hier_plan, hier_out);
  const double e2e_hier = wallclock_seconds() - t0;
  t0 = wallclock_seconds();
  const auto los_out = los_plan.execute();
  const double wall_los = wallclock_seconds() - t0;
  const auto spec_los = run::make_spectra(los_plan, los_out);
  const double e2e_los = wallclock_seconds() - t0;
  t0 = wallclock_seconds();
  const auto auto_out = auto_plan.execute();
  const double wall_auto = wallclock_seconds() - t0;
  const auto spec_auto = run::make_spectra(auto_plan, auto_out);
  const double e2e_auto = wallclock_seconds() - t0;

  // Per-mode CPU, grouped by decade of k.  Both plans share the grid,
  // so the result maps are keyed identically.
  std::map<int, DecadeCost> decades;
  double cpu_hier = 0.0, cpu_los = 0.0, cpu_auto = 0.0;
  // The routing's own ledger: CPU spent on the modes solver=auto
  // reroutes (k below the crossover).  Above the crossover auto and
  // los do identical work, so any difference there is run-ordering
  // noise — the gate below compares only the rerouted set.
  double cpu_los_rerouted = 0.0, cpu_auto_rerouted = 0.0;
  bool complete = hier_out.results.size() == los_out.results.size() &&
                  hier_out.results.size() == auto_out.results.size();
  for (const auto& [ik, rh] : hier_out.results) {
    const auto it = los_out.results.find(ik);
    const auto ia = auto_out.results.find(ik);
    if (it == los_out.results.end() || ia == auto_out.results.end()) {
      complete = false;
      continue;
    }
    const int dec =
        static_cast<int>(std::floor(std::log10(rh.k) + 1e-12));
    auto& d = decades[dec];
    d.cpu_hier += rh.cpu_seconds;
    d.cpu_los += it->second.cpu_seconds;
    d.cpu_auto += ia->second.cpu_seconds;
    d.n_modes += 1;
    cpu_hier += rh.cpu_seconds;
    cpu_los += it->second.cpu_seconds;
    cpu_auto += ia->second.cpu_seconds;
    if (rh.k < run::kAutoSolverCrossoverK) {
      cpu_los_rerouted += it->second.cpu_seconds;
      cpu_auto_rerouted += ia->second.cpu_seconds;
    }
  }

  // The accuracy companion: worst relative C_l^TT deviation, raw
  // (normalization divided back out).
  double worst_rel = 0.0, worst_rel_auto = 0.0;
  for (std::size_t l = 2; l <= l_max; ++l) {
    const double a = spec_hier.temperature.cl[l] / spec_hier.cobe_factor;
    const double b = spec_los.temperature.cl[l] / spec_los.cobe_factor;
    const double c = spec_auto.temperature.cl[l] / spec_auto.cobe_factor;
    worst_rel = std::max(worst_rel, std::abs(b - a) / std::abs(a));
    worst_rel_auto =
        std::max(worst_rel_auto, std::abs(c - a) / std::abs(a));
  }

  // EE/TE arms.  The speed arms above keep their lean polarization
  // towers (the TT speed record's baseline), so their EE is truncated
  // at the tower top and is no reference; the deviation is measured
  // against a dedicated tall-tower hierarchy run over the same k grid
  // — the ctest accuracy gate's construction (compared through
  // l = 160, denominators guarded by a fraction of the spectrum's
  // peak), except the polarization tower rides the full per-k photon
  // tower instead of the gate's 400: this grid reaches k tau0 well
  // past 400, and a G tower truncated below k tau0 reflects noise
  // down into its low-l moments, which sums into a jagged low-l EE
  // reference.
  run::RunConfig polref = hier;
  polref.lmax_photon = static_cast<std::size_t>(hier.lmax_cap);
  polref.lmax_polarization = polref.lmax_photon;
  const run::RunPlan polref_plan(polref, ctx);
  t0 = wallclock_seconds();
  const auto polref_out = polref_plan.execute();
  const double wall_polref = wallclock_seconds() - t0;
  const auto spec_ref = run::make_spectra(polref_plan, polref_out);
  const std::size_t l_pol =
      std::min({spec_ref.polarization_l_max,
                spec_los.polarization_l_max, l_max, std::size_t{160}});
  double worst_ee = 0.0, worst_te = 0.0;
  double worst_ee_auto = 0.0, worst_te_auto = 0.0;
  if (l_pol >= 2) {
    double peak_ee = 0.0, peak_te = 0.0;
    for (std::size_t l = 2; l <= l_pol; ++l) {
      peak_ee = std::max(
          peak_ee,
          std::abs(spec_ref.polarization.cl[l] / spec_ref.cobe_factor));
      peak_te = std::max(
          peak_te,
          std::abs(spec_ref.cross.cl[l] / spec_ref.cobe_factor));
    }
    const auto rel = [](double fast, double ref, double guard) {
      return std::abs(fast - ref) / std::max(std::abs(ref), guard);
    };
    for (std::size_t l = 2; l <= l_pol; ++l) {
      const double ee_h =
          spec_ref.polarization.cl[l] / spec_ref.cobe_factor;
      const double te_h = spec_ref.cross.cl[l] / spec_ref.cobe_factor;
      worst_ee = std::max(
          worst_ee,
          rel(spec_los.polarization.cl[l] / spec_los.cobe_factor, ee_h,
              0.01 * peak_ee));
      worst_te = std::max(
          worst_te, rel(spec_los.cross.cl[l] / spec_los.cobe_factor,
                        te_h, 0.01 * peak_te));
      worst_ee_auto = std::max(
          worst_ee_auto,
          rel(spec_auto.polarization.cl[l] / spec_auto.cobe_factor, ee_h,
              0.01 * peak_ee));
      worst_te_auto = std::max(
          worst_te_auto,
          rel(spec_auto.cross.cl[l] / spec_auto.cobe_factor, te_h,
              0.01 * peak_te));
    }
  }

  const double speedup_e2e = e2e_los > 0.0 ? e2e_hier / e2e_los : 0.0;
  const double speedup_e2e_auto =
      e2e_auto > 0.0 ? e2e_hier / e2e_auto : 0.0;
  std::printf("end to end (execute + make_spectra): hierarchy %.2f s, "
              "LOS %.2f s (%.1fx), auto %.2f s (%.1fx)\n",
              e2e_hier, e2e_los, speedup_e2e, e2e_auto, speedup_e2e_auto);
  std::printf("evolution CPU: hierarchy %.2f s, LOS %.2f s (%.1fx), "
              "auto %.2f s (%.1fx); execute wallclock %.2f / %.2f / "
              "%.2f s\n",
              cpu_hier, cpu_los, cpu_los > 0.0 ? cpu_hier / cpu_los : 0.0,
              cpu_auto, cpu_auto > 0.0 ? cpu_hier / cpu_auto : 0.0,
              wall_hier, wall_los, wall_auto);
  std::printf("worst C_l^TT relative deviation (l <= %zu): los %.4f, "
              "auto %.4f\n",
              l_max, worst_rel, worst_rel_auto);
  std::printf("worst C_l^EE / C_l^TE deviation (l <= %zu): los %.4f / "
              "%.4f, auto %.4f / %.4f\n\n",
              l_pol, worst_ee, worst_te, worst_ee_auto, worst_te_auto);

  io::BenchReport report("los");
  report.add("totals")
      .metric("l_max", static_cast<double>(l_max))
      .metric("n_modes", static_cast<double>(hier_out.results.size()))
      .metric("wallclock_seconds_end_to_end_hierarchy", e2e_hier)
      .metric("wallclock_seconds_end_to_end_los", e2e_los)
      .metric("wallclock_seconds_end_to_end_auto", e2e_auto)
      .metric("speedup_end_to_end", speedup_e2e)
      .metric("speedup_end_to_end_auto", speedup_e2e_auto)
      .metric("cpu_seconds_hierarchy", cpu_hier)
      .metric("cpu_seconds_los", cpu_los)
      .metric("cpu_seconds_auto", cpu_auto)
      .metric("wallclock_seconds_hierarchy", wall_hier)
      .metric("wallclock_seconds_los", wall_los)
      .metric("wallclock_seconds_auto", wall_auto)
      .metric("speedup_total",
              cpu_los > 0.0 ? cpu_hier / cpu_los : 0.0)
      .metric("speedup_total_auto",
              cpu_auto > 0.0 ? cpu_hier / cpu_auto : 0.0)
      .metric("cpu_seconds_los_rerouted_modes", cpu_los_rerouted)
      .metric("cpu_seconds_auto_rerouted_modes", cpu_auto_rerouted)
      .metric("rerouted_speedup",
              cpu_auto_rerouted > 0.0
                  ? cpu_los_rerouted / cpu_auto_rerouted
                  : 0.0)
      .metric("worst_cl_rel_error", worst_rel)
      .metric("worst_cl_rel_error_auto", worst_rel_auto)
      .metric("polarization_l_max", static_cast<double>(l_pol))
      .metric("wallclock_seconds_polarization_reference", wall_polref)
      .metric("worst_cl_ee_rel_error", worst_ee)
      .metric("worst_cl_te_rel_error", worst_te)
      .metric("worst_cl_ee_rel_error_auto", worst_ee_auto)
      .metric("worst_cl_te_rel_error_auto", worst_te_auto)
      .metric("complete", complete ? 1.0 : 0.0);

  std::printf("per-mode speedup by k-decade:\n");
  std::printf("   decade          modes   hier CPU    LOS CPU   "
              "speedup   auto CPU   speedup\n");
  double speedup_highest = 0.0;
  for (const auto& [dec, d] : decades) {
    const double speedup =
        d.cpu_los > 0.0 ? d.cpu_hier / d.cpu_los : 0.0;
    const double speedup_auto =
        d.cpu_auto > 0.0 ? d.cpu_hier / d.cpu_auto : 0.0;
    speedup_highest = speedup;  // map iterates ascending: last wins
    std::printf("   1e%+d..1e%+d     %5zu   %8.2f   %8.2f   %6.1fx   "
                "%8.2f   %6.1fx\n",
                dec, dec + 1, d.n_modes, d.cpu_hier, d.cpu_los, speedup,
                d.cpu_auto, speedup_auto);
    char name[32];
    std::snprintf(name, sizeof name, "decade_1e%+d", dec);
    report.add(name)
        .label("k_decade", std::to_string(dec))
        .metric("n_modes", static_cast<double>(d.n_modes))
        .metric("cpu_seconds_hierarchy", d.cpu_hier)
        .metric("cpu_seconds_los", d.cpu_los)
        .metric("speedup", speedup)
        .metric("cpu_seconds_auto", d.cpu_auto)
        .metric("speedup_auto", speedup_auto);
  }
  report.entries[0].metric("speedup_highest_k_decade", speedup_highest);
  std::printf("\nhighest-k decade speedup: %.1fx%s\n", speedup_highest,
              smoke ? " (smoke scale; the full run is the record)" : "");

  const std::string written = report.write_file(args.out);
  std::printf("wrote %s\n", written.c_str());

  // Structural gates (both scales): every mode present both ways, and
  // the deviation within the same ceiling the accuracy gate enforces.
  if (!complete) {
    std::fprintf(stderr, "FAIL: mode sets differ between solvers\n");
    return 1;
  }
  if (!(worst_rel < 0.20)) {
    std::fprintf(stderr, "FAIL: C_l deviation %.3f exceeds 0.20\n",
                 worst_rel);
    return 1;
  }
  // solver=auto only reroutes modes, so it can never be less accurate
  // than pure LOS, and the rerouted low-k modes must not cost more in
  // total than the LOS path they replaced (5% scheduler-noise margin).
  if (!(worst_rel_auto < 0.20)) {
    std::fprintf(stderr, "FAIL: auto C_l deviation %.3f exceeds 0.20\n",
                 worst_rel_auto);
    return 1;
  }
  // The polarization arms ride the same ceiling: the fast path must
  // not ship EE/TE columns it cannot defend.
  if (l_pol < 2) {
    std::fprintf(stderr, "FAIL: no common polarization reach\n");
    return 1;
  }
  if (!(worst_ee < 0.20 && worst_te < 0.20 && worst_ee_auto < 0.20 &&
        worst_te_auto < 0.20)) {
    std::fprintf(stderr,
                 "FAIL: EE/TE deviation (los %.3f/%.3f, auto %.3f/%.3f) "
                 "exceeds 0.20\n",
                 worst_ee, worst_te, worst_ee_auto, worst_te_auto);
    return 1;
  }
  if (!(cpu_auto_rerouted <= cpu_los_rerouted)) {
    std::fprintf(stderr,
                 "FAIL: solver=auto spends %.3f s on the rerouted "
                 "(k < crossover) modes vs %.3f s under solver=los\n",
                 cpu_auto_rerouted, cpu_los_rerouted);
    return 1;
  }
  std::printf("rerouted (k < %.3g) modes: los %.3f s, auto %.3f s "
              "(%.1fx)\n",
              run::kAutoSolverCrossoverK, cpu_los_rerouted,
              cpu_auto_rerouted,
              cpu_auto_rerouted > 0.0
                  ? cpu_los_rerouted / cpu_auto_rerouted
                  : 0.0);
  return 0;
}
