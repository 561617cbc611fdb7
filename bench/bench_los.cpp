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
//     per solver, and its speedup over the hierarchy.  Each solver's arm
//     runs kEndToEndRuns times; the record keeps the median (the speedups
//     divide medians) and the fastest and slowest run.  On the LOS route
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
#include <utility>
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
  std::size_t n_modes = 0;
};

/// Runs per end-to-end arm: one run of the same build moved LOS end to
/// end from 3.16 to 4.45 s on a shared 4-core box, so one run cannot
/// carry the speedup.
constexpr int kEndToEndRuns = 3;

/// One solver's end-to-end arm: the median run's output, spectra,
/// execute() wallclock and end-to-end wallclock, and the fastest and
/// slowest end-to-end wallclock.  Runs of one plan are bitwise
/// identical, so which run's results the accuracy columns read does not
/// matter.
struct Arm {
  parallel::RunOutput out;
  run::SpectrumSet spectra;
  double execute_seconds = 0.0;
  double e2e = 0.0, e2e_min = 0.0, e2e_max = 0.0;
};

Arm run_arm(const run::RunPlan& plan) {
  std::vector<Arm> runs(kEndToEndRuns);
  for (Arm& r : runs) {
    const double t0 = wallclock_seconds();
    r.out = plan.execute();
    r.execute_seconds = wallclock_seconds() - t0;
    r.spectra = run::make_spectra(plan, r.out);
    r.e2e = wallclock_seconds() - t0;
  }
  std::sort(runs.begin(), runs.end(),
            [](const Arm& a, const Arm& b) { return a.e2e < b.e2e; });
  Arm arm = std::move(runs[kEndToEndRuns / 2]);
  arm.e2e_min = runs.front().e2e;
  arm.e2e_max = runs.back().e2e;
  return arm;
}

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

  // The LOS arm runs on the integrator its solver selects by default
  // (dop853; the hierarchy keeps dverk).  solver = auto is the same run
  // as los, so it has no arm of its own.
  run::RunConfig los = hier;
  los.solver = "los";
  los.los_accuracy = "standard";

  const auto ctx = run::make_context(hier);
  const run::RunPlan hier_plan(hier, ctx);
  const run::RunPlan los_plan(los, ctx);
  std::printf("== solver=hierarchy vs solver=los: l_max = %zu, %zu modes "
              "==\n",
              l_max, hier_plan.schedule().size());

  // Each arm end to end: execute() (evolution, and on the LOS route the
  // workers' projection), then make_spectra() (accumulation).
  const Arm hier_arm = run_arm(hier_plan);
  const Arm los_arm = run_arm(los_plan);
  const auto& [hier_out, spec_hier, wall_hier, e2e_hier, e2e_hier_min,
               e2e_hier_max] = hier_arm;
  const auto& [los_out, spec_los, wall_los, e2e_los, e2e_los_min,
               e2e_los_max] = los_arm;

  // Per-mode CPU, grouped by decade of k.  Both plans share the grid,
  // so the result maps are keyed identically.
  std::map<int, DecadeCost> decades;
  double cpu_hier = 0.0, cpu_los = 0.0;
  bool complete = hier_out.results.size() == los_out.results.size();
  for (const auto& [ik, rh] : hier_out.results) {
    const auto it = los_out.results.find(ik);
    if (it == los_out.results.end()) {
      complete = false;
      continue;
    }
    const int dec =
        static_cast<int>(std::floor(std::log10(rh.k) + 1e-12));
    auto& d = decades[dec];
    d.cpu_hier += rh.cpu_seconds;
    d.cpu_los += it->second.cpu_seconds;
    d.n_modes += 1;
    cpu_hier += rh.cpu_seconds;
    cpu_los += it->second.cpu_seconds;
  }

  // The accuracy companion: worst relative C_l^TT deviation, raw
  // (normalization divided back out).
  double worst_rel = 0.0;
  for (std::size_t l = 2; l <= l_max; ++l) {
    const double a = spec_hier.temperature.cl[l] / spec_hier.cobe_factor;
    const double b = spec_los.temperature.cl[l] / spec_los.cobe_factor;
    worst_rel = std::max(worst_rel, std::abs(b - a) / std::abs(a));
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
  const double t0 = wallclock_seconds();
  const auto polref_out = polref_plan.execute();
  const double wall_polref = wallclock_seconds() - t0;
  const auto spec_ref = run::make_spectra(polref_plan, polref_out);
  const std::size_t l_pol =
      std::min({spec_ref.polarization_l_max,
                spec_los.polarization_l_max, l_max, std::size_t{160}});
  double worst_ee = 0.0, worst_te = 0.0;
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
    }
  }

  const double speedup_e2e = e2e_los > 0.0 ? e2e_hier / e2e_los : 0.0;
  std::printf("end to end (execute + make_spectra), median of %d: "
              "hierarchy %.2f s, LOS %.2f s (%.1fx)\n",
              kEndToEndRuns, e2e_hier, e2e_los, speedup_e2e);
  std::printf("  fastest-slowest: hierarchy %.2f-%.2f s, LOS %.2f-%.2f s\n",
              e2e_hier_min, e2e_hier_max, e2e_los_min, e2e_los_max);
  std::printf("evolution CPU: hierarchy %.2f s, LOS %.2f s (%.1fx); "
              "execute wallclock %.2f / %.2f s\n",
              cpu_hier, cpu_los, cpu_los > 0.0 ? cpu_hier / cpu_los : 0.0,
              wall_hier, wall_los);
  std::printf("worst C_l^TT relative deviation (l <= %zu): %.4f\n", l_max,
              worst_rel);
  std::printf("worst C_l^EE / C_l^TE deviation (l <= %zu): %.4f / %.4f\n\n",
              l_pol, worst_ee, worst_te);

  io::BenchReport report("los");
  report.add("totals")
      .metric("l_max", static_cast<double>(l_max))
      .metric("n_modes", static_cast<double>(hier_out.results.size()))
      .metric("wallclock_seconds_end_to_end_hierarchy", e2e_hier)
      .metric("wallclock_seconds_end_to_end_hierarchy_min", e2e_hier_min)
      .metric("wallclock_seconds_end_to_end_hierarchy_max", e2e_hier_max)
      .metric("wallclock_seconds_end_to_end_los", e2e_los)
      .metric("wallclock_seconds_end_to_end_los_min", e2e_los_min)
      .metric("wallclock_seconds_end_to_end_los_max", e2e_los_max)
      .metric("speedup_end_to_end", speedup_e2e)
      .metric("cpu_seconds_hierarchy", cpu_hier)
      .metric("cpu_seconds_los", cpu_los)
      .metric("wallclock_seconds_hierarchy", wall_hier)
      .metric("wallclock_seconds_los", wall_los)
      .metric("speedup_total",
              cpu_los > 0.0 ? cpu_hier / cpu_los : 0.0)
      .metric("worst_cl_rel_error", worst_rel)
      .metric("polarization_l_max", static_cast<double>(l_pol))
      .metric("wallclock_seconds_polarization_reference", wall_polref)
      .metric("worst_cl_ee_rel_error", worst_ee)
      .metric("worst_cl_te_rel_error", worst_te)
      .metric("complete", complete ? 1.0 : 0.0);

  std::printf("per-mode speedup by k-decade:\n");
  std::printf("   decade          modes   hier CPU    LOS CPU   "
              "speedup\n");
  double speedup_highest = 0.0;
  for (const auto& [dec, d] : decades) {
    const double speedup =
        d.cpu_los > 0.0 ? d.cpu_hier / d.cpu_los : 0.0;
    speedup_highest = speedup;  // map iterates ascending: last wins
    std::printf("   1e%+d..1e%+d     %5zu   %8.2f   %8.2f   %6.1fx\n", dec,
                dec + 1, d.n_modes, d.cpu_hier, d.cpu_los, speedup);
    char name[32];
    std::snprintf(name, sizeof name, "decade_1e%+d", dec);
    report.add(name)
        .label("k_decade", std::to_string(dec))
        .metric("n_modes", static_cast<double>(d.n_modes))
        .metric("cpu_seconds_hierarchy", d.cpu_hier)
        .metric("cpu_seconds_los", d.cpu_los)
        .metric("speedup", speedup);
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
  // The polarization arms ride the same ceiling: the fast path must
  // not ship EE/TE columns it cannot defend.
  if (l_pol < 2) {
    std::fprintf(stderr, "FAIL: no common polarization reach\n");
    return 1;
  }
  if (!(worst_ee < 0.20 && worst_te < 0.20)) {
    std::fprintf(stderr, "FAIL: EE/TE deviation %.3f/%.3f exceeds 0.20\n",
                 worst_ee, worst_te);
    return 1;
  }
  return 0;
}
