// Section 4 "message economics": per-wavenumber computation versus
// message size.
//
// The paper: "with the smallest values of k required, the CPU time is at
// least two minutes on an IBM Power2 chip, while the results are
// gathered as a single message of roughly 150 bytes.  (The largest
// k-values ... can take up to half an hour of CPU time; the message
// length increases roughly in proportion to the CPU time, to a maximum
// of 80 kbyte).  Thus the overhead from message passing is
// insignificant."
//
// We regenerate the comparison: measured CPU per k, exact wire bytes of
// the tag-4/5 records, their ratio, and the end-to-end transport totals
// of a real threaded run.

#include <cstdio>
#include <cmath>

#include "math/spline.hpp"
#include "plinger/driver.hpp"
#include "plinger/records.hpp"
#include "plinger/virtual_cluster.hpp"

int main() {
  using namespace plinger;
  const auto params = cosmo::CosmoParams::standard_cdm();
  const cosmo::Background bg(params);
  const cosmo::Recombination rec(bg);

  std::printf("== Section 4: compute time vs message size ==\n");

  boltzmann::PerturbationConfig cfg;
  cfg.rtol = 1e-5;
  boltzmann::ModeEvolver evolver(bg, rec, cfg);

  std::printf("\n   k [1/Mpc]   lmax    CPU [s]    result bytes   "
              "bytes/CPU-s   transfer/CPU [ppm of link]\n");
  const parallel::LinkModel link;
  for (double k : {0.0005, 0.002, 0.008, 0.02, 0.05}) {
    boltzmann::EvolveRequest req;
    req.k = k;
    const auto r = evolver.evolve(req);
    const auto header = parallel::pack_header(1, r);
    const auto payload = parallel::pack_payload(1, r);
    const std::size_t bytes =
        (header.size() + payload.size()) * sizeof(double);
    const double transit = link.transit(bytes);
    std::printf("   %.4f     %5zu    %6.3f     %8zu       %8.0f      "
                "%8.1f\n",
                k, r.lmax, r.cpu_seconds, bytes,
                static_cast<double>(bytes) / r.cpu_seconds,
                transit / r.cpu_seconds * 1e6);
  }

  // The paper's extremes, reconstructed from the record definitions:
  std::printf("\nwire-record extremes (from the record layout):\n");
  std::printf("  header (tag 4): %zu bytes (the paper's 'roughly 150 "
              "bytes' class)\n",
              parallel::kHeaderLength * sizeof(double));
  std::printf("  payload at lmax = 5000, full polarization: %zu bytes "
              "(the paper's ~80 kB maximum)\n",
              parallel::payload_length(5000, 5000) * sizeof(double));

  // End-to-end transport accounting of a real run.
  const parallel::KSchedule schedule(
      math::linspace(0.002, 0.04, 32),
      parallel::IssueOrder::largest_first);
  parallel::RunSetup setup;
  const auto out =
      parallel::run_plinger_threads(bg, rec, cfg, schedule, setup, 2);
  const auto& t = out.transport;
  std::printf("\nreal 2-worker run, %zu modes: %llu messages, %.1f kB "
              "total, largest %zu bytes\n",
              schedule.size(),
              static_cast<unsigned long long>(t.n_messages),
              static_cast<double>(t.n_bytes) / 1e3,
              static_cast<std::size_t>(t.max_message_bytes));
  std::printf("per-tag counts: init %llu, request %llu, assign %llu, "
              "header %llu, payload %llu, stop %llu\n",
              static_cast<unsigned long long>(t.per_tag[1]),
              static_cast<unsigned long long>(t.per_tag[2]),
              static_cast<unsigned long long>(t.per_tag[3]),
              static_cast<unsigned long long>(t.per_tag[4]),
              static_cast<unsigned long long>(t.per_tag[5]),
              static_cast<unsigned long long>(t.per_tag[6]));
  std::printf("transport time at SP2-class link: %.4f s vs %.1f s "
              "compute -> overhead %.4f%%\n",
              static_cast<double>(t.n_bytes) / link.bytes_per_second +
                  static_cast<double>(t.n_messages) *
                      link.latency_seconds,
              out.total_worker_cpu_seconds,
              100.0 *
                  (static_cast<double>(t.n_bytes) /
                       link.bytes_per_second +
                   static_cast<double>(t.n_messages) *
                       link.latency_seconds) /
                  out.total_worker_cpu_seconds);
  return 0;
}
