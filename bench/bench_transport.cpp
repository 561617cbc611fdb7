// Transport bench: what does leaving the process cost?  Three exhibits
// emitted as BENCH_transport.json for machine diffing:
//
//  * loopback round-trip latency of one framed Appendix-A message over
//    a TcpWorld pair on 127.0.0.1 (p50 over many ping-pongs), plus a
//    large-frame ping that backs out an effective stream bandwidth;
//  * the same small Boltzmann sweep run on the in-process threads
//    driver and on the TCP transport (worker ranks joining over real
//    sockets), reported as modes/s and a tcp/threads wallclock ratio —
//    results must be bitwise identical across transports (exit 1
//    otherwise, same gate the ctest E2E enforces);
//  * a DES cross-check: the virtual cluster replay driven by a
//    LinkModel built from the *measured* latency and bandwidth,
//    compared against the measured TCP wallclock.
//
// Usage: bench_transport [--smoke] [--out FILE]
//   --smoke   reduced iteration/mode counts; writes BENCH_transport.json
//             to the cwd (ctest wiring, `check-transport` target)
//   --out     explicit output path (overrides both defaults)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timing.hpp"
#include "io/bench_json.hpp"
#include "mp/tcp_world.hpp"
#include "plinger/driver.hpp"
#include "plinger/virtual_cluster.hpp"
#include "run/plan.hpp"

namespace {

using namespace plinger;

/// p50 of a sample set (destructive: sorts in place).
double median(std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// One master + one worker TcpWorld over loopback; the worker echoes
/// every tag-2 ping back as a tag-3 pong.  Returns per-iteration
/// round-trip times in seconds.
std::vector<double> ping_pong(std::size_t iters, std::size_t n_doubles) {
  auto master = mp::TcpWorld::listen("127.0.0.1", 0, /*n_workers=*/1);
  const int port = master->port();
  std::vector<double> rtt;
  rtt.reserve(iters);
  std::thread echo([port, iters] {
    auto w = mp::TcpWorld::connect("127.0.0.1", port);
    const int me = w->local_rank();
    std::vector<double> buf;
    for (std::size_t i = 0; i < iters; ++i) {
      const auto pr = w->probe(me, 0, 2);
      buf.resize(pr.length);
      w->recv(me, 0, 2, buf);
      w->send(me, 0, 3, buf);
    }
  });
  master->accept_workers();
  std::vector<double> payload(n_doubles, 1.0);
  std::vector<double> back(n_doubles);
  for (std::size_t i = 0; i < iters; ++i) {
    const double t0 = wallclock_seconds();
    master->send(0, 1, 2, payload);
    master->probe(0, 1, 3);
    master->recv(0, 1, 3, back);
    rtt.push_back(wallclock_seconds() - t0);
  }
  echo.join();
  return rtt;
}

/// The sweep both transports run; mirrors the transport E2E test's
/// shape, scaled up for the full bench.
run::RunConfig sweep_config(bool smoke) {
  run::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.002;
  cfg.k_max = smoke ? 0.02 : 0.1;
  cfg.n_k = smoke ? 6 : 24;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.tau_end = smoke ? 600.0 : 2000.0;
  cfg.lmax_cap = 24;
  cfg.workers = 2;
  return cfg;
}

/// Bitwise equality of the wire-carried fields — the exact payload the
/// transports move, so any framing defect shows up here.
bool wire_equal(const parallel::RunOutput& a, const parallel::RunOutput& b) {
  if (a.results.size() != b.results.size()) return false;
  for (const auto& [ik, ra] : a.results) {
    const auto it = b.results.find(ik);
    if (it == b.results.end()) return false;
    const auto& rb = it->second;
    if (std::memcmp(&ra.k, &rb.k, sizeof(double)) != 0) return false;
    if (ra.f_gamma != rb.f_gamma || ra.g_gamma != rb.g_gamma) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const io::BenchArgs args = io::parse_bench_args(argc, argv, "transport");
  const bool smoke = args.smoke;

  io::BenchReport report("transport");

  // --- exhibit 1: loopback frame latency and bandwidth -----------------
  const std::size_t iters = smoke ? 200 : 2000;
  auto rtt_small = ping_pong(iters, /*n_doubles=*/1);
  const double rtt_p50 = median(rtt_small);

  // A ~4 MB round trip; the latency term is now negligible, so the
  // extra time over the small ping is almost pure stream transfer.
  const std::size_t big_doubles = std::size_t{1} << 19;
  auto rtt_big = ping_pong(smoke ? 5 : 20, big_doubles);
  const double rtt_big_p50 = median(rtt_big);
  const double big_bytes = static_cast<double>(big_doubles * sizeof(double));
  const double bandwidth =
      rtt_big_p50 > rtt_p50
          ? 2.0 * big_bytes / (rtt_big_p50 - rtt_p50)  // two transits/RTT
          : 0.0;
  std::printf("== loopback: rtt p50 %.1f us (1 double), %.2f ms (%zu), "
              "~%.0f MB/s ==\n",
              rtt_p50 * 1e6, rtt_big_p50 * 1e3, big_doubles,
              bandwidth / 1e6);
  report.add("loopback-latency")
      .label("exhibit", "loopback")
      .metric("iterations", static_cast<double>(iters))
      .metric("rtt_p50_us", rtt_p50 * 1e6)
      .metric("rtt_big_p50_ms", rtt_big_p50 * 1e3)
      .metric("big_frame_doubles", static_cast<double>(big_doubles))
      .metric("bandwidth_mb_s", bandwidth / 1e6);
  if (rtt_p50 <= 0.0) {
    std::fprintf(stderr, "loopback ping-pong measured no elapsed time\n");
    return 1;
  }

  // --- exhibit 2: the sweep, in-process vs cross-socket ----------------
  const run::RunConfig cfg = sweep_config(smoke);
  const auto ctx = run::make_context(cfg);
  run::RunPlan plan(cfg, ctx);
  const std::size_t n_modes = plan.schedule().size();
  std::printf("== sweep: %zu modes, %d workers ==\n", n_modes, cfg.workers);

  const double t_threads0 = wallclock_seconds();
  const auto out_threads = parallel::run_plinger_threads(
      ctx->background(), ctx->recombination(), plan.perturbation(),
      plan.schedule(), plan.setup(), cfg.workers);
  const double wall_threads = wallclock_seconds() - t_threads0;

  parallel::RunOutput out_tcp;
  double wall_tcp = 0.0;
  {
    auto world = mp::TcpWorld::listen("127.0.0.1", 0, cfg.workers);
    const int port = world->port();
    // Worker ranks in this same process, but the master reaches them
    // only through real loopback sockets — every byte is framed.
    std::vector<std::thread> workers;
    for (int w = 0; w < cfg.workers; ++w) {
      workers.emplace_back([&, port] {
        auto ww = mp::TcpWorld::connect("127.0.0.1", port);
        parallel::run_plinger_tcp_worker(ctx->background(),
                                         ctx->recombination(),
                                         plan.perturbation(), plan.schedule(),
                                         plan.setup(), *ww);
      });
    }
    world->accept_workers();
    const double t0 = wallclock_seconds();
    out_tcp = parallel::run_plinger_tcp(ctx->background(),
                                        ctx->recombination(),
                                        plan.perturbation(), plan.schedule(),
                                        plan.setup(), *world);
    wall_tcp = wallclock_seconds() - t0;
    world.reset();  // GOODBYE lets the worker loops return
    for (auto& t : workers) t.join();
  }

  const double modes_s_threads =
      wall_threads > 0.0 ? static_cast<double>(n_modes) / wall_threads : 0.0;
  const double modes_s_tcp =
      wall_tcp > 0.0 ? static_cast<double>(n_modes) / wall_tcp : 0.0;
  const double ratio = wall_threads > 0.0 ? wall_tcp / wall_threads : 0.0;
  std::printf("%-10s %10s %10s %8s\n", "transport", "wall[s]", "modes/s",
              "ratio");
  std::printf("%-10s %10.3f %10.1f %8s\n", "threads", wall_threads,
              modes_s_threads, "1.00x");
  std::printf("%-10s %10.3f %10.1f %7.2fx\n", "tcp", wall_tcp, modes_s_tcp,
              ratio);
  report.add("sweep-threads")
      .label("exhibit", "sweep")
      .label("transport", "inproc")
      .metric("n_modes", static_cast<double>(n_modes))
      .metric("n_workers", static_cast<double>(cfg.workers))
      .metric("wall_seconds", wall_threads)
      .metric("modes_per_s", modes_s_threads);
  report.add("sweep-tcp")
      .label("exhibit", "sweep")
      .label("transport", "tcp")
      .metric("n_modes", static_cast<double>(n_modes))
      .metric("n_workers", static_cast<double>(cfg.workers))
      .metric("wall_seconds", wall_tcp)
      .metric("modes_per_s", modes_s_tcp)
      .metric("wall_vs_inproc", ratio)
      .metric("n_messages", static_cast<double>(out_tcp.transport.n_messages))
      .metric("n_bytes", static_cast<double>(out_tcp.transport.n_bytes));

  if (out_threads.results.size() != n_modes ||
      out_tcp.results.size() != n_modes) {
    std::fprintf(stderr, "sweep incomplete: threads %zu, tcp %zu of %zu\n",
                 out_threads.results.size(), out_tcp.results.size(), n_modes);
    return 1;
  }
  if (!wire_equal(out_threads, out_tcp)) {
    std::fprintf(stderr,
                 "transport changed the physics: tcp results are not "
                 "bitwise identical to the threads driver\n");
    return 1;
  }

  // --- exhibit 3: DES cross-check --------------------------------------
  // Feed the virtual cluster the link we just measured and the sweep's
  // mean per-mode cost; its predicted wallclock should land in the same
  // regime as the real socket run (reported, not gated — wallclocks on
  // a shared build machine are too noisy for a hard bound).
  const double cpu_per_mode =
      out_threads.total_worker_cpu_seconds / static_cast<double>(n_modes);
  parallel::LinkModel link;
  link.latency_seconds = rtt_p50 / 2.0;
  if (bandwidth > 0.0) link.bytes_per_second = bandwidth;
  parallel::MessageSizer sizer;
  sizer.tau0 = ctx->conformal_age();
  sizer.lmax_cap = cfg.lmax_cap;
  sizer.lmax_pol = cfg.lmax_polarization;
  const auto virt = parallel::simulate_virtual_cluster(
      plan.schedule(), cfg.workers, [cpu_per_mode](double) {
        return cpu_per_mode;
      },
      link, sizer);
  const double predicted_ratio =
      wall_tcp > 0.0 ? virt.wallclock_seconds / wall_tcp : 0.0;
  std::printf("== DES check: predicted %.3f s vs measured %.3f s "
              "(%.2fx) ==\n",
              virt.wallclock_seconds, wall_tcp, predicted_ratio);
  report.add("des-validation")
      .label("exhibit", "des")
      .metric("link_latency_us", link.latency_seconds * 1e6)
      .metric("link_bandwidth_mb_s", link.bytes_per_second / 1e6)
      .metric("predicted_wall_seconds", virt.wallclock_seconds)
      .metric("measured_wall_seconds", wall_tcp)
      .metric("predicted_over_measured", predicted_ratio)
      .metric("predicted_efficiency", virt.parallel_efficiency());

  const std::string written = report.write_file(args.out);
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
