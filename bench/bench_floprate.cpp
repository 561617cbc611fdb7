// Section 5.1 "Flop Rates": sustained per-node and aggregate flop rates.
//
// The paper: LINGER runs at 570 Mflop on one Cray C90 head, 40 Mflop
// unoptimized (58 optimized) on a Power2 node, 15 Mflop on a T3D node;
// PLINGER aggregates 2.4 Gflop on 64 SP2 nodes and 9.6 Gflop on 256.
// Absolute rates are machine-specific; the reproducible content is (a) a
// meaningful single-node sustained rate from flop-counted integrations
// and (b) aggregate rate ~ N x single-node rate because the parallel
// efficiency stays near 1 (negligible message overhead).

#include <cstdio>
#include <cmath>

#include "common/simd.hpp"
#include "io/bench_json.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"
#include "plinger/virtual_cluster.hpp"
#include "spectra/cl.hpp"

int main() {
  using namespace plinger;
  const auto params = cosmo::CosmoParams::standard_cdm();
  const cosmo::Background bg(params);
  const cosmo::Recombination rec(bg);

  std::printf("== Section 5.1: flop rates ==\n");

  boltzmann::PerturbationConfig cfg;
  cfg.rtol = 1e-5;
  boltzmann::ModeEvolver evolver(bg, rec, cfg);

  // Single-node sustained rate across representative wavenumbers.
  std::printf("\nper-mode accounting (flops are counted per RHS "
              "evaluation):\n");
  std::printf("   k [1/Mpc]   lmax    RHS evals    Gflop     CPU [s]   "
              "Mflop/s\n");
  io::BenchReport report("floprate");
  double total_flops = 0.0, total_cpu = 0.0;
  for (double k : {0.002, 0.01, 0.03, 0.06}) {
    boltzmann::EvolveRequest req;
    req.k = k;
    const auto r = evolver.evolve(req);
    total_flops += static_cast<double>(r.flops);
    total_cpu += r.cpu_seconds;
    std::printf("   %.4f     %5zu   %9ld    %.3f     %.3f     %7.1f\n",
                k, r.lmax, r.stats.n_rhs,
                static_cast<double>(r.flops) / 1e9, r.cpu_seconds,
                static_cast<double>(r.flops) / r.cpu_seconds / 1e6);
    char kbuf[32];
    std::snprintf(kbuf, sizeof kbuf, "%g", k);
    report.add("mode")
        .label("k", kbuf)
        .metric("lmax", static_cast<double>(r.lmax))
        .metric("n_rhs", static_cast<double>(r.stats.n_rhs))
        .metric("flops", static_cast<double>(r.flops))
        .metric("cpu_seconds", r.cpu_seconds)
        .metric("mflops", static_cast<double>(r.flops) / r.cpu_seconds / 1e6);
  }
  const double node_rate = total_flops / total_cpu;
  report.add("node").metric("sustained_mflops", node_rate / 1e6);
  std::printf("\nsingle-node sustained rate: %.0f Mflop/s\n",
              node_rate / 1e6);
  std::printf("(paper single nodes: C90 570, Power2 40-58, T3D 15 "
              "Mflop)\n");

  // Aggregate rates via the virtual cluster (accounts for the idle
  // tail and message overhead, which the paper argues are negligible).
  // Costs are the measured model rescaled to the paper's Power2 node
  // speed (2 minutes for the cheapest mode, §4), i.e., a production-size
  // run rather than this machine's seconds-long test.
  const double tau0 = bg.conformal_age();
  const parallel::KSchedule schedule(
      spectra::make_cl_kgrid(3000, tau0, 4.0),
      parallel::IssueOrder::largest_first);
  // The paper's cost profile: 2..30 minutes per mode, linear in k.
  const double k_lo = schedule.k_of_ik(1);
  const double k_hi = schedule.k_of_ik(schedule.size());
  auto cost_model = [k_lo, k_hi](double k) {
    return 120.0 + (1800.0 - 120.0) * (k - k_lo) / (k_hi - k_lo);
  };
  parallel::MessageSizer sizer;
  sizer.tau0 = tau0;
  std::printf("\n  N nodes    aggregate rate     vs paper's SP2 "
              "numbers\n");
  double agg64 = 0.0, agg256 = 0.0;
  for (int n : {1, 64, 256}) {
    const auto r = parallel::simulate_virtual_cluster(
        schedule, n, cost_model, parallel::LinkModel{}, sizer);
    const double aggregate = node_rate * r.parallel_efficiency() *
                             static_cast<double>(n);
    if (n == 64) agg64 = aggregate;
    if (n == 256) agg256 = aggregate;
    const char* anchor = (n == 64)    ? "2.4 Gflop @ 40 Mflop nodes"
                         : (n == 256) ? "9.6 Gflop @ 40 Mflop nodes"
                                      : "single node";
    std::printf("   %4d      %8.2f Gflop     (%s)\n", n,
                aggregate / 1e9, anchor);
    // Shape check: aggregate/node_rate ~ N.
    if (n > 1 && r.parallel_efficiency() < 0.9) {
      std::printf("   WARNING: efficiency %.2f below the paper's ~0.95\n",
                  r.parallel_efficiency());
    }
  }
  std::printf("\nratio check: paper 256/64 = %.2f, ours = %.2f "
              "(linear scaling)\n",
              9.6 / 2.4, agg256 / agg64);
  report.add("aggregate")
      .metric("gflops_64_nodes", agg64 / 1e9)
      .metric("gflops_256_nodes", agg256 / 1e9);
  // The copy of the PLINGER_HOT kernels that ran (common/simd.hpp).
  for (auto& e : report.entries) e.label("hot_copy", plinger::hot_copy());
  std::printf("wrote %s\n", report.write_file().c_str());
  return 0;
}
