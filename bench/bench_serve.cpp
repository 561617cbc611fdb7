// bench_serve: the memoizing serve layer's three answer tiers.
//
// The daemon's pitch is that a spectrum is computed once and then
// served from memory: tier 1 (identity-keyed LRU), tier 2 (persistent
// journal, surviving restarts), tier 3 (RunPlan::execute).  This bench
// measures the tiers directly against SpectrumService (the TCP shell
// adds nothing but socket I/O) and reports
//
//   * per-tier answer latency p50/p99 — the headline is the
//     repeat-identity speedup, p50(compute) / p50(lru), gated >= 100x
//     (in practice it is orders beyond that: an LRU hit is a hash
//     lookup against seconds of Boltzmann integration),
//   * requests/sec over mixed request streams at 0% / 50% / 95%
//     repeat-identity hit rates,
//   * a bitwise gate: the journal tier (a fresh service over the same
//     journal directory, i.e. a daemon restart) must render byte-for-
//     byte the response the compute tier rendered.
//
// Usage: bench_serve [--smoke] [--out FILE]
//   --smoke   reduced workload; writes BENCH_serve.json to the cwd
//             (ctest wiring, `check-serve` target)
//   --out     explicit output path (overrides both defaults)

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "io/bench_json.hpp"
#include "run/config.hpp"
#include "serve/service.hpp"

using namespace plinger;

namespace {

/// The i-th distinct request: one shared cosmology (the context cache
/// is not what this bench measures), k-grids differing per i so every i
/// is a distinct run identity.
run::RunConfig config_for(std::size_t i) {
  run::RunConfig cfg;
  cfg.n_k = 4;
  // Distinct identities at flat per-mode cost: nudge the grid's lower
  // edge (well under k_max for every index this bench uses).
  cfg.k_min = 1e-4 * (1.0 + 0.01 * static_cast<double>(i));
  cfg.k_max = 0.04;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 8;
  cfg.lmax_neutrino = 8;
  cfg.rtol = 1e-5;
  cfg.driver = "autotask";
  cfg.workers = 2;
  return cfg;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct TierTimes {
  std::vector<double> seconds;
  double p50() const { return percentile(seconds, 0.50); }
  double p99() const { return percentile(seconds, 0.99); }
};

}  // namespace

int main(int argc, char** argv) {
  const io::BenchArgs args = io::parse_bench_args(argc, argv, "serve");
  const bool smoke = args.smoke;

  const std::size_t n_distinct = smoke ? 3 : 12;
  const std::size_t lru_repeats = smoke ? 8 : 40;
  const std::size_t stream_len = smoke ? 20 : 200;

  const std::string jdir = "bench_serve_journals";
  std::filesystem::remove_all(jdir);

  serve::ServeOptions opts;
  opts.journal_dir = jdir;
  opts.lru_capacity = 256;
  opts.compute_slots = 2;

  std::printf("== serve tiers: %zu distinct identities ==\n", n_distinct);

  // --- tier 3: cold computes (and the reference payloads) ---
  TierTimes t_compute;
  std::vector<std::string> reference;
  {
    serve::SpectrumService service(opts);
    for (std::size_t i = 0; i < n_distinct; ++i) {
      const double t0 = wallclock_seconds();
      const serve::Answer a = service.answer(config_for(i));
      t_compute.seconds.push_back(wallclock_seconds() - t0);
      if (a.tier != serve::Tier::compute) {
        std::fprintf(stderr, "FAIL: cold answer came from tier %s\n",
                     serve::tier_name(a.tier));
        return 1;
      }
      reference.push_back(serve::render_response(a));
    }

    // --- tier 1: repeat identities against the warm service ---
    TierTimes t_lru;
    for (std::size_t r = 0; r < lru_repeats; ++r) {
      const std::size_t i = r % n_distinct;
      const double t0 = wallclock_seconds();
      const serve::Answer a = service.answer(config_for(i));
      t_lru.seconds.push_back(wallclock_seconds() - t0);
      if (a.tier != serve::Tier::lru) {
        std::fprintf(stderr, "FAIL: warm answer came from tier %s\n",
                     serve::tier_name(a.tier));
        return 1;
      }
      // Hits render the same payload byte for byte; the OK line's
      // tier= field is the only legitimate difference.
      const std::string rendered = serve::render_response(a);
      if (rendered.substr(rendered.find('\n')) !=
          reference[i].substr(reference[i].find('\n'))) {
        std::fprintf(stderr, "FAIL: lru response differs from compute\n");
        return 1;
      }
    }

    // The acceptance headline: repeat-identity vs cold compute.
    const double speedup =
        t_lru.p50() > 0.0 ? t_compute.p50() / t_lru.p50() : 0.0;
    std::printf("compute p50 %.3f ms  p99 %.3f ms   (%zu samples)\n",
                t_compute.p50() * 1e3, t_compute.p99() * 1e3,
                t_compute.seconds.size());
    std::printf("lru     p50 %.6f ms  p99 %.6f ms   (%zu samples)\n",
                t_lru.p50() * 1e3, t_lru.p99() * 1e3,
                t_lru.seconds.size());
    std::printf("repeat-identity speedup: %.0fx\n\n", speedup);

    io::BenchReport report("serve");
    report.add("tiers")
        .metric("n_distinct", static_cast<double>(n_distinct))
        .metric("compute_p50_seconds", t_compute.p50())
        .metric("compute_p99_seconds", t_compute.p99())
        .metric("lru_p50_seconds", t_lru.p50())
        .metric("lru_p99_seconds", t_lru.p99())
        .metric("p50_speedup_lru_vs_compute", speedup);

    // --- tier 2: a daemon restart — fresh service, same journals ---
    TierTimes t_journal;
    {
      serve::SpectrumService restarted(opts);
      for (std::size_t i = 0; i < n_distinct; ++i) {
        const double t0 = wallclock_seconds();
        const serve::Answer a = restarted.answer(config_for(i));
        t_journal.seconds.push_back(wallclock_seconds() - t0);
        if (a.tier != serve::Tier::journal) {
          std::fprintf(stderr,
                       "FAIL: restarted answer came from tier %s\n",
                       serve::tier_name(a.tier));
          return 1;
        }
        // The restart gate: warm-started products must render byte-
        // for-byte what the original computation rendered (the OK
        // lines differ only in the tier= field, so compare payloads).
        const std::string rendered = serve::render_response(a);
        if (rendered.substr(rendered.find('\n')) !=
            reference[i].substr(reference[i].find('\n'))) {
          std::fprintf(stderr,
                       "FAIL: journal response differs from compute\n");
          return 1;
        }
        if (restarted.stats().computes != 0) {
          std::fprintf(stderr, "FAIL: restart recomputed\n");
          return 1;
        }
      }
    }
    std::printf("journal p50 %.3f ms  p99 %.3f ms   (restart, no "
                "recompute)\n\n",
                t_journal.p50() * 1e3, t_journal.p99() * 1e3);
    report.entries[0]
        .metric("journal_p50_seconds", t_journal.p50())
        .metric("journal_p99_seconds", t_journal.p99());

    // --- mixed streams: requests/sec at fixed repeat-identity rates ---
    // Each stream runs against a fresh service and a fresh journal dir
    // so the hit rate is exactly the stream's, not an artifact of
    // earlier phases.  A "miss" is a never-before-seen identity (a new
    // k_max), a "hit" repeats identity 0 of the stream.
    std::printf("mixed streams (%zu requests each):\n", stream_len);
    const double rates[] = {0.0, 0.5, 0.95};
    const char* rate_names[] = {"hit00", "hit50", "hit95"};
    for (std::size_t ri = 0; ri < 3; ++ri) {
      const std::string sdir =
          jdir + "/stream_" + std::to_string(ri);
      std::filesystem::remove_all(sdir);
      serve::ServeOptions sopts = opts;
      sopts.journal_dir = sdir;
      serve::SpectrumService stream(sopts);
      std::size_t fresh = 0;
      // Deterministic interleave: request r is a hit iff the running
      // hit count stays under rate * (r + 1).
      std::size_t hits = 0;
      const double t0 = wallclock_seconds();
      for (std::size_t r = 0; r < stream_len; ++r) {
        const bool hit =
            r > 0 && (static_cast<double>(hits) <
                      rates[ri] * static_cast<double>(r + 1));
        if (hit) {
          ++hits;
          stream.answer(config_for(1000 + ri * stream_len));
        } else {
          stream.answer(config_for(1000 + ri * stream_len + fresh++));
        }
      }
      const double elapsed = wallclock_seconds() - t0;
      const double rps =
          elapsed > 0.0 ? static_cast<double>(stream_len) / elapsed : 0.0;
      std::printf("  %2.0f%% repeat: %8.1f req/s  (%zu computes)\n",
                  rates[ri] * 100.0, rps,
                  static_cast<std::size_t>(stream.stats().computes));
      report.add(rate_names[ri])
          .label("hit_rate", std::to_string(rates[ri]))
          .metric("requests", static_cast<double>(stream_len))
          .metric("requests_per_second", rps)
          .metric("computes",
                  static_cast<double>(stream.stats().computes));
    }

    const std::string written = report.write_file(args.out);
    std::printf("\nwrote %s\n", written.c_str());

    std::filesystem::remove_all(jdir);

    // The acceptance gate: repeat-identity answers must be at least
    // 100x faster at the median than cold computes.
    if (!(speedup >= 100.0)) {
      std::fprintf(stderr, "FAIL: repeat-identity speedup %.1fx < 100x\n",
                   speedup);
      return 1;
    }
  }
  return 0;
}
