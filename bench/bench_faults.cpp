// Fault-tolerance overhead bench: the same small Boltzmann sweep run
// three ways on the message-passing driver — fault-free, with a worker
// killed mid-run, and with a dropped result recovered by stall timeout —
// emitted as BENCH_faults.json for machine diffing.
//
// Two questions it answers:
//  * what does the recovery machinery cost when nothing fails (the
//    "no-fault" row is the tax on healthy runs — deadlines are armed
//    only when a timeout is configured, so it should be ~zero), and
//  * what does one failure cost end-to-end (lost work recomputed by a
//    survivor, plus detection latency for the timeout path).
//
// Usage: bench_faults [--smoke] [--out FILE]
//   --smoke   reduced mode count / horizon; writes BENCH_faults.json to
//             the cwd (ctest wiring, `check-fault` target)
//   --out     explicit output path (overrides both defaults)

#include <cstdio>
#include <cstring>
#include <string>

#include "common/timing.hpp"
#include "io/bench_json.hpp"
#include "mp/fault_world.hpp"
#include "run/plan.hpp"

using namespace plinger;

int main(int argc, char** argv) {
  const io::BenchArgs args = io::parse_bench_args(argc, argv, "faults");
  const bool smoke = args.smoke;

  const std::size_t n_modes = smoke ? 6 : 24;
  const int n_workers = 4;

  // The declarative run surface covers the sweep itself; the fault
  // *injection* plans are host-side test plumbing, attached to each
  // plan's RunSetup below.
  run::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.002;
  cfg.k_max = smoke ? 0.02 : 0.1;
  cfg.n_k = n_modes;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.tau_end = smoke ? 600.0 : 2000.0;
  cfg.lmax_cap = 24;
  cfg.workers = n_workers;
  const auto ctx = run::make_context(cfg);

  io::BenchReport report("faults");
  std::printf("== fault-tolerance bench: %zu modes, %d workers ==\n",
              n_modes, n_workers);
  std::printf("%-14s %10s %6s %6s %8s\n", "scenario", "wall[s]", "lost",
              "reass", "overhead");

  struct Scenario {
    const char* name;
    mp::FaultPlan inject;
    double timeout_seconds = 0.0;
  };
  Scenario scenarios[3];
  scenarios[0] = {"no-fault", {}, 0.0};

  {
    mp::FaultAction a;
    a.kind = mp::FaultKind::kill_before_send;
    a.rank = 1;
    a.tag = 4;  // dies mid-mode: its work is lost and recomputed
    scenarios[1] = {"kill-worker", {}, 0.0};
    scenarios[1].inject.actions.push_back(a);
  }
  {
    mp::FaultAction a;
    a.kind = mp::FaultKind::drop_message;
    a.rank = 1;
    a.tag = 4;  // result vanishes: only the deadline can recover it
    scenarios[2] = {"drop-timeout", {}, smoke ? 0.2 : 1.0};
    scenarios[2].inject.actions.push_back(a);
  }

  double wall_clean = 0.0;
  for (const Scenario& sc : scenarios) {
    run::RunPlan plan(cfg, ctx);
    plan.setup().inject = sc.inject;
    if (sc.timeout_seconds > 0.0) {
      plan.setup().fault.timeout_seconds = sc.timeout_seconds;
      plan.setup().fault.timeout_floor_seconds = 0.05;
    }
    const double t0 = wallclock_seconds();
    const auto out = plan.execute();
    const double wall = wallclock_seconds() - t0;
    if (std::strcmp(sc.name, "no-fault") == 0) wall_clean = wall;
    const double overhead = wall_clean > 0.0 ? wall / wall_clean : 1.0;
    report.add(sc.name)
        .label("scenario", sc.name)
        .metric("wall_seconds", wall)
        .metric("n_modes_computed", static_cast<double>(out.n_modes_computed))
        .metric("n_workers_lost", static_cast<double>(out.n_workers_lost))
        .metric("n_modes_reassigned",
                static_cast<double>(out.n_modes_reassigned))
        .metric("completed_degraded", out.completed_degraded ? 1.0 : 0.0)
        .metric("overhead_vs_clean", overhead);
    std::printf("%-14s %10.3f %6zu %6zu %7.2fx\n", sc.name, wall,
                out.n_workers_lost, out.n_modes_reassigned, overhead);
    if (out.results.size() != n_modes) {
      std::fprintf(stderr, "%s: expected %zu modes, got %zu\n", sc.name,
                   n_modes, out.results.size());
      return 1;
    }
  }

  const std::string written = report.write_file(args.out);
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
