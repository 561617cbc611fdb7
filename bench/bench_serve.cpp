// bench_serve: the memoizing serve layer's three answer tiers.
//
// The daemon's pitch is that a spectrum is computed once and then
// served from memory: tier 1 (identity-keyed LRU), tier 2 (persistent
// journal, surviving restarts), tier 3 (RunPlan::execute).  This bench
// measures the tiers directly against SpectrumService, then the same
// cold computes through the TCP shell, and reports
//
//   * per-tier answer latency p50/p99 — the headline is the
//     repeat-identity speedup, p50(compute) / p50(lru), gated >= 100x
//     (in practice it is orders beyond that: an LRU hit is a hash
//     lookup against seconds of Boltzmann integration),
//   * the wire: those computes as RUN requests to a SpectrumServer on
//     127.0.0.1 over one persistent connection, first byte sent to DONE
//     received, and what the socket adds over the in-process compute
//     p50 (ungated: a wall time, not a work count),
//   * requests/sec over mixed request streams at 0% / 50% / 95%
//     repeat-identity hit rates,
//   * bitwise gates: the journal tier (a fresh service over the same
//     journal directory, i.e. a daemon restart) and every wire reply
//     (after its PROGRESS lines) must be byte-for-byte the response the
//     compute tier rendered.
//
// Usage: bench_serve [--smoke] [--out FILE]
//   --smoke   reduced workload; writes BENCH_serve.json to the cwd
//             (ctest wiring, `check-serve` target)
//   --out     explicit output path (overrides both defaults)

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timing.hpp"
#include "io/bench_json.hpp"
#include "mp/tcp_world.hpp"
#include "run/config.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
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

/// The RUN request for cfg: its key = value lines, less the keys the
/// daemon reserves for itself.
std::string run_request(const run::RunConfig& cfg) {
  std::istringstream lines(cfg.to_params_text());
  std::string out = "RUN\n";
  for (std::string line; std::getline(lines, line);) {
    if (!serve::is_reserved_key(line.substr(0, line.find(' ')))) {
      out += line + "\n";
    }
  }
  return out + "END\n";
}

/// One persistent loopback connection to a SpectrumServer.  request()
/// sends one RUN request in one write and returns its reply through
/// DONE (or a one-line ERR) without the PROGRESS lines; "" when the
/// connection fails.
class WireClient {
 public:
  explicit WireClient(int port)
      : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    const sockaddr_in addr = mp::ipv4_address("127.0.0.1", port);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  std::string request(const std::string& text) {
    if (fd_ < 0 || !mp::send_all(fd_, text)) return "";
    std::string reply;
    while (true) {
      std::string::size_type nl;
      while ((nl = buf_.find('\n')) != std::string::npos) {
        const std::string line = buf_.substr(0, nl + 1);
        buf_.erase(0, nl + 1);
        if (line.rfind("PROGRESS ", 0) == 0) continue;
        reply += line;
        if (line == "DONE\n" || line.rfind("ERR ", 0) == 0) return reply;
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
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

    // --- the wire: the same cold computes through the TCP shell ---
    // A fresh service and journal directory keep every request cold.
    // One connection carries them all, after a warm-up compute (another
    // identity, the same cosmology, so it also builds the context) that
    // spends Linux's quick-ACK start: a new connection ACKs its first
    // segments at once, which would hide a reply waiting on an ACK.
    TierTimes t_wire;
    {
      serve::ServeOptions wopts = opts;
      wopts.journal_dir = jdir + "/wire";
      serve::SpectrumService wired(wopts);
      serve::SpectrumServer server(wired, serve::ServerOptions{});
      std::thread serving([&server] { server.serve(); });
      std::string failure;
      try {
        WireClient client(server.port());
        if (client.request(run_request(config_for(n_distinct))).empty()) {
          failure = "warm-up request got no reply";
        }
        for (std::size_t i = 0; i < n_distinct && failure.empty(); ++i) {
          const std::string request = run_request(config_for(i));
          const double t0 = wallclock_seconds();
          const std::string reply = client.request(request);
          t_wire.seconds.push_back(wallclock_seconds() - t0);
          if (reply != reference[i]) {
            failure = "wire reply " + std::to_string(i) +
                      " differs from the in-process compute";
          }
        }
      } catch (const std::exception& e) {
        failure = e.what();  // the serving thread is joined below
      }
      server.request_stop();
      serving.join();
      if (!failure.empty()) {
        std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
        return 1;
      }
    }
    const double wire_overhead = t_wire.p50() - t_compute.p50();
    std::printf("wire    p50 %.3f ms  p99 %.3f ms   (one connection; "
                "%.3f ms over the in-process compute p50)\n\n",
                t_wire.p50() * 1e3, t_wire.p99() * 1e3,
                wire_overhead * 1e3);
    report.add("wire")
        .metric("requests", static_cast<double>(t_wire.seconds.size()))
        .metric("wire_compute_p50_seconds", t_wire.p50())
        .metric("wire_compute_p99_seconds", t_wire.p99())
        .metric("wire_overhead_p50_seconds", wire_overhead);

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
