// Section 5.2 ablation: the end-of-run idle tail and its largest-k-first
// mitigation.
//
// "Once the final value of k has been given to a worker process, the
// other nodes will no longer have any work to do ... one simple method
// by which we minimized this idle time was to compute the largest k
// first."  We replay the identical workload under the three issue
// orders on the virtual cluster and report wallclock, efficiency, and
// the idle-tail length (wallclock minus the last assignment time proxy).

#include <cstdio>
#include <cmath>
#include <iostream>

#include "plinger/trace.hpp"
#include "plinger/virtual_cluster.hpp"
#include "spectra/cl.hpp"

namespace {

/// Replay one schedule with tracing and derive the Figure-1 report.
plinger::parallel::RunReport traced_report(
    const plinger::parallel::KSchedule& schedule, int n_workers,
    const plinger::parallel::CostModel& cost,
    const plinger::parallel::MessageSizer& sizer) {
  using namespace plinger::parallel;
  TraceRecorder recorder;
  const auto r = simulate_virtual_cluster(schedule, n_workers, cost,
                                          LinkModel{}, sizer, {},
                                          &recorder);
  const auto trace = recorder.finish(n_workers, r.wallclock_seconds);
  return make_run_report(trace);
}

}  // namespace

int main() {
  using namespace plinger;
  const double tau0 = 11839.0;  // standard CDM conformal age
  const auto kgrid = spectra::make_cl_kgrid(500, tau0, 2.0);

  // Paper-like cost: ~2 min at small k to ~30 min at the largest.
  auto cost = [tau0](double k) {
    const double x = k * tau0 / (0.0528 * tau0);
    return 120.0 + (1800.0 - 120.0) * x * x;
  };
  parallel::MessageSizer sizer;
  sizer.tau0 = tau0;

  std::printf("== Section 5.2 ablation: issue order vs idle tail ==\n");
  std::printf("workload: %zu modes, 2-30 min each\n", kgrid.size());
  std::printf("(idle tail: run end minus a worker's last span finish, "
              "from the run trace)\n\n");
  std::printf("  N     order           wallclock [h]   efficiency   "
              "idle tail max/mean [s]\n");
  for (int n : {16, 64, 256}) {
    for (auto [order, name] :
         {std::pair{parallel::IssueOrder::largest_first,
                    "largest-first"},
          std::pair{parallel::IssueOrder::natural, "natural      "},
          std::pair{parallel::IssueOrder::random_shuffle,
                    "random       "}}) {
      const parallel::KSchedule schedule(kgrid, order);
      const auto rep = traced_report(schedule, n, cost, sizer);
      std::printf(" %4d   %s      %8.3f       %.4f      %9.1f / %-9.1f\n",
                  n, name, rep.wallclock_seconds / 3600.0,
                  rep.parallel_efficiency, rep.idle_tail_seconds,
                  rep.mean_idle_tail_seconds);
    }
    std::printf("\n");
  }

  // Full per-worker timeline report for the paper's production choice
  // vs the worst baseline at one cluster size.
  std::printf("per-worker report, 16 workers, 64-mode schedule:\n");
  {
    std::vector<double> sub(kgrid.begin(), kgrid.begin() + 64);
    for (auto [order, name] :
         {std::pair{parallel::IssueOrder::largest_first, "largest-first"},
          std::pair{parallel::IssueOrder::natural, "natural"}}) {
      const parallel::KSchedule schedule(sub, order);
      const auto rep = traced_report(schedule, 16, cost, sizer);
      std::printf("\n-- issue order: %s --\n", name);
      parallel::write_ascii_report(std::cout, rep);
    }
  }
  std::printf("\n");
  std::printf("(the paper: 'For production runs ... this idle time will "
              "be less significant')\n");

  // Show the production-vs-test contrast: a short test run suffers more.
  std::printf("\nidle-tail significance vs run length (64 workers, "
              "largest-first):\n");
  std::printf("   modes    wallclock [h]    efficiency\n");
  for (std::size_t n_modes : {64u, 128u, 256u, 398u}) {
    std::vector<double> sub(kgrid.begin(),
                            kgrid.begin() +
                                std::min<std::size_t>(n_modes,
                                                      kgrid.size()));
    const parallel::KSchedule schedule(
        sub, parallel::IssueOrder::largest_first);
    const auto r = parallel::simulate_virtual_cluster(
        schedule, 64, cost, parallel::LinkModel{}, sizer);
    std::printf("   %5zu     %8.3f        %.4f\n", sub.size(),
                r.wallclock_seconds / 3600.0, r.parallel_efficiency());
  }
  return 0;
}
