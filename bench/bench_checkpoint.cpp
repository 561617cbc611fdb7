// bench_checkpoint: checkpoint overhead vs flush interval.
//
// COSMICS shipped restart files because production runs died on shared
// queues; the question for our ModeResultStore is what the insurance
// premium is.  This bench measures, on a real (small) serial run:
//
//   * end-to-end wallclock with no store vs with a store at flush
//     intervals 1 (checkpoint every mode), 4, 16, and 0 (flush only on
//     close), plus the journal size,
//   * resume cost: time to reopen the finished journal and load every
//     record (the startup price of a fully resumed run),
//   * raw journal append throughput (records/s) per flush interval,
//     isolated from the integrator.
//
// The expected picture: per-mode integration dwarfs the append+flush
// cost (the paper's message-economics argument applies to disk too), so
// flush_interval=1 — the safest setting — is the right default.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "run/plan.hpp"
#include "store/mode_result_store.hpp"

using namespace plinger;

namespace {

const char* kPath = "bench_checkpoint_store.bin";

// One cosmology (context shared by every plan below), one tiny serial
// sweep; the store settings vary per scenario.
run::RunConfig base_config() {
  run::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.002;
  cfg.k_max = 0.02;
  cfg.n_k = 16;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.tau_end = 600.0;
  cfg.lmax_cap = 24;
  cfg.driver = "serial";
  return cfg;
}

void remove_journal() {
  std::error_code ec;
  std::filesystem::remove(kPath, ec);
}

}  // namespace

int main() {
  const run::RunConfig cfg = base_config();
  const auto ctx = run::make_context(cfg);
  const run::RunPlan base_plan(cfg, ctx);
  std::printf("bench_checkpoint: %zu modes, serial driver\n\n",
              base_plan.schedule().size());

  // Baseline: no store.
  double t0 = wallclock_seconds();
  const auto base = base_plan.execute();
  const double t_base = wallclock_seconds() - t0;
  std::printf("%-22s %10.4f s   (reference)\n", "no store", t_base);

  // With a store, per flush interval.
  const std::size_t intervals[] = {1, 4, 16, 0};
  for (const std::size_t fi : intervals) {
    remove_journal();
    run::RunConfig store_cfg = cfg;
    store_cfg.store = kPath;
    store_cfg.flush_interval = fi;
    const run::RunPlan plan(store_cfg, ctx);
    t0 = wallclock_seconds();
    const auto out = plan.execute();
    const double t_run = wallclock_seconds() - t0;
    const auto bytes = std::filesystem::file_size(kPath);

    // Resume cost: reopen and load everything.
    t0 = wallclock_seconds();
    const auto out2 = plan.execute();
    const double t_resume = wallclock_seconds() - t0;

    char label[40];
    std::snprintf(label, sizeof(label), "flush_interval=%zu", fi);
    std::printf("%-22s %10.4f s   overhead %+6.2f%%   journal %6llu B   "
                "resume %.4f s (%zu loaded)\n",
                label, t_run, 100.0 * (t_run - t_base) / t_base,
                static_cast<unsigned long long>(bytes), t_resume,
                out2.n_modes_loaded);
    if (out.results.size() != base.results.size()) {
      std::printf("ERROR: store run lost modes\n");
      return 1;
    }
  }

  // Raw append throughput, integrator excluded: rewrite the journal from
  // the already-computed results many times over.  The identity comes
  // from the plan — the same hash its executions stamp on journals.
  std::printf("\nraw journal append throughput (integration excluded):\n");
  const store::RunIdentity id = base_plan.identity();
  const std::size_t n_modes = base_plan.schedule().size();
  const int reps = 200;
  for (const std::size_t fi : intervals) {
    remove_journal();
    store::StoreOptions opts;
    opts.path = kPath;
    opts.flush_interval = fi;
    std::size_t n = 0;
    t0 = wallclock_seconds();
    {
      store::ModeResultStore st(opts, id, n_modes * reps);
      for (int rep = 0; rep < reps; ++rep) {
        for (const auto& [ik, r] : base.results) {
          st.append(ik + static_cast<std::size_t>(rep) * n_modes, r);
          ++n;
        }
      }
    }
    const double dt = wallclock_seconds() - t0;
    std::printf("  flush_interval=%-4zu %8.0f records/s\n", fi,
                static_cast<double>(n) / dt);
  }

  remove_journal();
  return 0;
}
