// Hot-path perf-regression bench: RHS-evaluation throughput and per-mode
// evolve wallclock, emitted as BENCH_hotpath.json for machine diffing.
//
// The "baseline" entries are measured from an in-binary replica of the
// pre-overhaul kernel: per-call Background/Recombination spline lookups
// (binary search + log/exp per quantity) and division-based hierarchy
// couplings k l/(2l+1) evaluated per multipole per call.  Keeping the
// replica in the bench makes the baseline re-measurable on any machine,
// so the speedup column stays honest instead of comparing against
// numbers measured once on somebody else's laptop.
//
// Usage: bench_hotpath [--smoke] [--out FILE]
//   --smoke   reduced iteration counts and the cheap evolve only; writes
//             BENCH_hotpath.json to the cwd (ctest wiring)
//   --out     explicit output path (overrides both defaults)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "boltzmann/equations.hpp"
#include "boltzmann/mode_evolution.hpp"
#include "common/timing.hpp"
#include "cosmo/background.hpp"
#include "cosmo/recombination.hpp"
#include "cosmo/thermo_cache.hpp"
#include "io/bench_json.hpp"

namespace {

using namespace plinger;
using boltzmann::StateLayout;

/// Replica of the pre-overhaul rhs_full: direct spline lookups and
/// per-multipole divides, structured exactly as the old ModeEquations
/// code was.  Kept minimal (no TCA variant, no counters) — it exists
/// only to be timed.
class BaselineRhs {
 public:
  BaselineRhs(const cosmo::Background& bg, const cosmo::Recombination& rec,
              const boltzmann::PerturbationConfig& cfg, double k)
      : bg_(bg),
        k_(k),
        layout_(cfg.lmax_photon,
                std::min(cfg.lmax_polarization, cfg.lmax_photon),
                cfg.lmax_neutrino,
                bg.nu() != nullptr ? bg.nu()->q_grid().size() : 0,
                cfg.lmax_massive_nu) {
    // The library spline now takes an O(1) fast path on uniform grids;
    // the pre-overhaul kernel paid a binary search on every thermo
    // lookup.  Rebuild the opacity/cs2 tables on a deliberately
    // de-uniformed copy of Recombination's ln-a grid (same resolution,
    // knots shifted by a quarter spacing) so CubicSpline falls back to
    // bisection and the baseline keeps the pre-change lookup cost.
    const std::size_t n = 4096;
    auto lna = math::linspace(std::log(1e-9), 0.0, n);
    const double h = lna[1] - lna[0];
    for (std::size_t i = 1; i + 1 < n; ++i) {
      lna[i] += (i % 2 ? 0.25 : -0.25) * h;
    }
    // Like the pre-overhaul Recombination, the tables store
    // log(opacity) / log(cs2): every lookup paid std::log on the
    // argument and std::exp on the result.
    std::vector<double> opac(n), cs2(n);
    for (std::size_t i = 0; i < n; ++i) {
      opac[i] = std::log(rec.opacity_lna(lna[i]));
      cs2[i] = std::log(rec.cs2_baryon_lna(lna[i]));
    }
    opac_base_ = math::CubicSpline(lna, opac);
    cs2_base_ = math::CubicSpline(lna, cs2);
  }

  const StateLayout& layout() const { return layout_; }

  void rhs_full(double tau, std::span<const double> y,
                std::span<double> dy) const {
    ++n_calls_;
    const StateLayout& L = layout_;
    const double a = std::max(y[StateLayout::a], 1e-12);
    const cosmo::GrhoComponents grho = bg_.grho(a);
    const double adotoa = std::sqrt(grho.total() / 3.0);
    const double opac = std::exp(opac_base_(std::log(a)));
    const double cs2 = std::exp(cs2_base_(std::log(a)));
    const double r_gb = (4.0 / 3.0) * grho.photon / grho.baryon;

    const double delta_nu = y[L.fn(0)];
    const double theta_nu = 0.75 * k_ * y[L.fn(1)];
    const double sigma_nu = 0.5 * y[L.fn(2)];
    double gdrho = grho.cdm * y[StateLayout::delta_c] +
                   grho.baryon * y[StateLayout::delta_b] +
                   grho.photon * y[StateLayout::delta_g] +
                   grho.nu_massless * delta_nu;
    double gdq = grho.baryon * y[StateLayout::theta_b] +
                 (4.0 / 3.0) * (grho.photon * y[StateLayout::theta_g] +
                                grho.nu_massless * theta_nu);
    double gdshear = (4.0 / 3.0) * grho.nu_massless * sigma_nu;
    const double hdot =
        (2.0 * k_ * k_ * y[StateLayout::eta] + gdrho) / adotoa;
    const double etadot = gdq / (2.0 * k_ * k_);
    const double alpha = (hdot + 6.0 * etadot) / (2.0 * k_ * k_);
    gdshear += (4.0 / 3.0) * grho.photon * (0.5 * y[L.fg(2)]);
    (void)alpha;
    (void)gdshear;

    const double k = k_;
    const std::size_t lmax = L.lmax_photon();
    dy[StateLayout::a] = a * adotoa;
    dy[StateLayout::h] = hdot;
    dy[StateLayout::eta] = etadot;
    dy[StateLayout::delta_c] = -0.5 * hdot;
    dy[StateLayout::delta_b] = -y[StateLayout::theta_b] - 0.5 * hdot;
    dy[StateLayout::delta_g] =
        -(4.0 / 3.0) * y[StateLayout::theta_g] - (2.0 / 3.0) * hdot;

    const double sigma_g = 0.5 * y[L.fg(2)];
    dy[StateLayout::theta_b] =
        -adotoa * y[StateLayout::theta_b] +
        cs2 * k * k * y[StateLayout::delta_b] +
        opac * r_gb * (y[StateLayout::theta_g] - y[StateLayout::theta_b]);
    dy[StateLayout::theta_g] =
        k * k * (0.25 * y[StateLayout::delta_g] - sigma_g) +
        opac * (y[StateLayout::theta_b] - y[StateLayout::theta_g]);

    const double pi_pol = y[L.fg(2)] + y[L.gg(0)] + y[L.gg(2)];
    dy[L.fg(2)] = (8.0 / 15.0) * y[StateLayout::theta_g] -
                  (3.0 / 5.0) * k * y[L.fg(3)] + (4.0 / 15.0) * hdot +
                  (8.0 / 5.0) * etadot - (9.0 / 5.0) * opac * sigma_g +
                  (1.0 / 10.0) * opac * (y[L.gg(0)] + y[L.gg(2)]);
    for (std::size_t l = 3; l < lmax; ++l) {
      const double dl = static_cast<double>(l);
      dy[L.fg(l)] = k / (2.0 * dl + 1.0) *
                        (dl * y[L.fg(l - 1)] - (dl + 1.0) * y[L.fg(l + 1)]) -
                    opac * y[L.fg(l)];
    }
    dy[L.fg(lmax)] = k * y[L.fg(lmax - 1)] -
                     (static_cast<double>(lmax) + 1.0) / tau * y[L.fg(lmax)] -
                     opac * y[L.fg(lmax)];

    dy[L.gg(0)] = -k * y[L.gg(1)] + opac * (0.5 * pi_pol - y[L.gg(0)]);
    dy[L.gg(1)] =
        (k / 3.0) * (y[L.gg(0)] - 2.0 * y[L.gg(2)]) - opac * y[L.gg(1)];
    dy[L.gg(2)] = (k / 5.0) * (2.0 * y[L.gg(1)] - 3.0 * y[L.gg(3)]) +
                  opac * (0.1 * pi_pol - y[L.gg(2)]);
    const std::size_t lpol = L.lmax_polarization();
    for (std::size_t l = 3; l < lpol; ++l) {
      const double dl = static_cast<double>(l);
      dy[L.gg(l)] = k / (2.0 * dl + 1.0) *
                        (dl * y[L.gg(l - 1)] - (dl + 1.0) * y[L.gg(l + 1)]) -
                    opac * y[L.gg(l)];
    }
    dy[L.gg(lpol)] = k * y[L.gg(lpol - 1)] -
                     (static_cast<double>(lpol) + 1.0) / tau * y[L.gg(lpol)] -
                     opac * y[L.gg(lpol)];

    const std::size_t lnu = L.lmax_neutrino();
    dy[L.fn(0)] = -k_ * y[L.fn(1)] - (2.0 / 3.0) * hdot;
    dy[L.fn(1)] = (k_ / 3.0) * (y[L.fn(0)] - 2.0 * y[L.fn(2)]);
    dy[L.fn(2)] = (k_ / 5.0) * (2.0 * y[L.fn(1)] - 3.0 * y[L.fn(3)]) +
                  (4.0 / 15.0) * hdot + (8.0 / 5.0) * etadot;
    for (std::size_t l = 3; l < lnu; ++l) {
      const double dl = static_cast<double>(l);
      dy[L.fn(l)] = k_ / (2.0 * dl + 1.0) *
                    (dl * y[L.fn(l - 1)] - (dl + 1.0) * y[L.fn(l + 1)]);
    }
    dy[L.fn(lnu)] = k_ * y[L.fn(lnu - 1)] -
                    (static_cast<double>(lnu) + 1.0) / tau * y[L.fn(lnu)];
  }

 private:
  const cosmo::Background& bg_;
  double k_;
  StateLayout layout_;
  math::CubicSpline opac_base_, cs2_base_;
  mutable std::uint64_t n_calls_ = 0;
};

/// Time `fn()` over `iters` total calls split into 5 repetitions,
/// returning the fastest repetition's ns per call.  Min-of-reps is the
/// standard low-noise estimator for a deterministic kernel: scheduler
/// and frequency noise only ever add time.
template <class Fn>
double time_ns(Fn&& fn, int iters) {
  for (int i = 0; i < std::max(iters / 10, 32); ++i) fn();  // warmup
  constexpr int kReps = 5;
  const int per_rep = std::max(iters / kReps, 1);
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = wallclock_seconds();
    for (int i = 0; i < per_rep; ++i) fn();
    best = std::min(best, (wallclock_seconds() - t0) / per_rep);
  }
  return best * 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const io::BenchArgs args = io::parse_bench_args(argc, argv, "hotpath");
  const bool smoke = args.smoke;

  const auto params = cosmo::CosmoParams::standard_cdm();
  const cosmo::Background bg(params);
  const cosmo::Recombination rec(bg);
  const cosmo::ThermoCache cache(bg, rec);
  const double tau0 = bg.conformal_age();

  io::BenchReport report("hotpath");
  std::printf("== hot-path bench: RHS throughput and evolve wallclock ==\n");
  std::printf("%-10s %-6s %14s %14s %9s\n", "kernel", "k", "baseline[ns]",
              "optimized[ns]", "speedup");

  // --- RHS-evaluation throughput at a mid-evolution epoch (a = 1e-4).
  for (const double k : {0.002, 0.2}) {
    boltzmann::PerturbationConfig cfg;
    cfg.lmax_photon = boltzmann::lmax_photon_for_k(k, tau0);
    boltzmann::ModeEquations eq(bg, rec, cfg, k, &cache);
    BaselineRhs base(bg, rec, cfg, k);

    const double tau_init = std::min(
        boltzmann::kIcEps / k,
        bg.tau_of_a(bg.a_equality() / boltzmann::kEarlyAFactor));
    std::vector<double> y = eq.initial_conditions(tau_init);
    std::vector<double> dy(y.size(), 0.0);
    const double tau = bg.tau_of_a(1e-4);
    y[StateLayout::a] = 1e-4;

    int iters = cfg.lmax_photon > 1000 ? 20000 : 200000;
    if (smoke) iters = 200;
    const double ns_base = time_ns(
        [&] { base.rhs_full(tau, y, dy); }, iters);
    const double ns_opt = time_ns(
        [&] { eq.rhs_full(tau, y, dy); }, iters);
    const double speedup = ns_base / ns_opt;

    char kbuf[32];
    std::snprintf(kbuf, sizeof kbuf, "%g", k);
    report.add("rhs_full_baseline")
        .label("k", kbuf)
        .label("variant", "baseline")
        .metric("lmax", static_cast<double>(cfg.lmax_photon))
        .metric("ns_per_eval", ns_base)
        .metric("evals_per_sec", 1e9 / ns_base);
    report.add("rhs_full_optimized")
        .label("k", kbuf)
        .label("variant", "optimized")
        .metric("lmax", static_cast<double>(cfg.lmax_photon))
        .metric("ns_per_eval", ns_opt)
        .metric("evals_per_sec", 1e9 / ns_opt)
        .metric("speedup_vs_baseline", speedup);
    std::printf("%-10s %-6g %14.1f %14.1f %8.2fx\n", "rhs_full", k, ns_base,
                ns_opt, speedup);
  }

  // --- Per-mode evolve wallclock (the production path: shared cache).
  {
    boltzmann::PerturbationConfig cfg;
    cfg.rtol = 1e-5;
    boltzmann::ModeEvolver evolver(
        bg, rec, cfg,
        std::make_shared<const cosmo::ThermoCache>(bg, rec));
    std::vector<double> ks = {0.01};
    if (!smoke) ks.push_back(0.2);
    for (const double k : ks) {
      boltzmann::EvolveRequest req;
      req.k = k;
      const double t0 = wallclock_seconds();
      const auto r = evolver.evolve(req);
      const double wall = wallclock_seconds() - t0;
      char kbuf[32];
      std::snprintf(kbuf, sizeof kbuf, "%g", k);
      report.add("evolve_optimized")
          .label("k", kbuf)
          .label("variant", "optimized")
          .metric("lmax", static_cast<double>(r.lmax))
          .metric("wall_seconds", wall)
          .metric("cpu_seconds", r.cpu_seconds)
          .metric("n_rhs", static_cast<double>(r.stats.n_rhs));
      std::printf("%-10s %-6g %14s %12.3f s  (n_rhs=%ld)\n", "evolve", k,
                  "-", wall, r.stats.n_rhs);

      // Same mode through the DOP853 core (integrator=dop853): fewer
      // RHS evals per step pair, tracked here so the hotpath record
      // shows both integrator families side by side.
      boltzmann::PerturbationConfig dcfg = cfg;
      dcfg.integrator = boltzmann::IntegratorKind::dop853;
      boltzmann::ModeEvolver dop_evolver(
          bg, rec, dcfg,
          std::make_shared<const cosmo::ThermoCache>(bg, rec));
      const double t1 = wallclock_seconds();
      const auto rd = dop_evolver.evolve(req);
      const double wall_dop = wallclock_seconds() - t1;
      report.add("evolve_dop853")
          .label("k", kbuf)
          .label("variant", "dop853")
          .metric("lmax", static_cast<double>(rd.lmax))
          .metric("wall_seconds", wall_dop)
          .metric("cpu_seconds", rd.cpu_seconds)
          .metric("n_rhs", static_cast<double>(rd.stats.n_rhs))
          .metric("rhs_reduction_vs_dverk",
                  rd.stats.n_rhs > 0
                      ? static_cast<double>(r.stats.n_rhs) /
                            static_cast<double>(rd.stats.n_rhs)
                      : 0.0);
      std::printf("%-10s %-6g %14s %12.3f s  (n_rhs=%ld, dop853)\n",
                  "evolve", k, "-", wall_dop, rd.stats.n_rhs);
    }
  }

  const std::string written = report.write_file(args.out);
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
