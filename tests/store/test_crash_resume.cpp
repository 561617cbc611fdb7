// Crash-resume integration tests: a run killed after N checkpoints must
// resume to results bitwise identical to an uninterrupted run, for all
// three drivers, across drivers, and in combination with the tag-7
// fault-requeue path.  The "crash" is the store's flush-then-stop hook
// (StoreOptions::stop_after): the journal is flushed, then the driver
// stops issuing fresh modes and winds down — everything after that point
// is indistinguishable from a kill between checkpoints.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"
#include "spectra/cl.hpp"
#include "store/mode_result_store.hpp"

namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;
namespace pm = plinger::mp;
namespace ps = plinger::store;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kNModes = 6;

struct World {
  pc::Background bg{pc::CosmoParams::standard_cdm()};
  pc::Recombination rec{bg};
  pb::PerturbationConfig cfg;
  World() {
    cfg.lmax_photon = 24;
    cfg.lmax_polarization = 12;
    cfg.lmax_neutrino = 12;
    cfg.rtol = 1e-5;
  }
};
const World& world() {
  static World w;
  return w;
}

pp::KSchedule make_schedule() {
  return pp::KSchedule(plinger::math::linspace(0.002, 0.02, kNModes),
                       pp::IssueOrder::largest_first);
}

pp::RunSetup setup_for(const std::string& store) {
  pp::RunSetup setup;
  setup.tau_end = 600.0;
  setup.lmax_cap = 24;
  setup.store.path = store;
  return setup;
}

std::string temp_path(const std::string& name) {
  const std::string p =
      ::testing::TempDir() + "plinger_resume_" + name + ".bin";
  std::error_code ec;
  fs::remove(p, ec);
  return p;
}

/// The uninterrupted serial reference (no store) every resumed run must
/// reproduce bitwise.
const pp::RunOutput& reference() {
  static const auto ref = [] {
    const auto& w = world();
    const auto s = make_schedule();
    return pp::run_linger_serial(w.bg, w.rec, w.cfg, s,
                                 setup_for(""));
  }();
  return ref;
}

/// Bitwise equality on the wire-carried fields (loaded modes went
/// through the Appendix-A pack/unpack, which drops n_rejected, alpha,
/// pi_pol — same contract as the message-passing driver).
void expect_wire_bitwise_equal(const pb::ModeResult& a,
                               const pb::ModeResult& b, std::size_t ik) {
  EXPECT_EQ(a.k, b.k) << ik;
  EXPECT_EQ(a.lmax, b.lmax) << ik;
  EXPECT_EQ(a.flops, b.flops) << ik;
  EXPECT_EQ(a.stats.n_accepted, b.stats.n_accepted) << ik;
  EXPECT_EQ(a.stats.n_rhs, b.stats.n_rhs) << ik;
  EXPECT_EQ(a.tau_init, b.tau_init) << ik;
  EXPECT_EQ(a.tau_switch, b.tau_switch) << ik;
  EXPECT_EQ(a.tau_end, b.tau_end) << ik;
  EXPECT_EQ(a.final_state.delta_g, b.final_state.delta_g) << ik;
  EXPECT_EQ(a.final_state.theta_g, b.final_state.theta_g) << ik;
  EXPECT_EQ(a.final_state.eta, b.final_state.eta) << ik;
  ASSERT_EQ(a.f_gamma.size(), b.f_gamma.size()) << ik;
  for (std::size_t l = 0; l < a.f_gamma.size(); ++l) {
    EXPECT_EQ(a.f_gamma[l], b.f_gamma[l]) << ik << " l=" << l;
  }
  ASSERT_EQ(a.g_gamma.size(), b.g_gamma.size()) << ik;
  for (std::size_t l = 0; l < a.g_gamma.size(); ++l) {
    EXPECT_EQ(a.g_gamma[l], b.g_gamma[l]) << ik << " l=" << l;
  }
}

void expect_matches_reference(const pp::RunOutput& out) {
  const auto& ref = reference().results;
  ASSERT_EQ(out.results.size(), ref.size());
  for (const auto& [ik, r_ref] : ref) {
    ASSERT_TRUE(out.results.count(ik)) << ik;
    expect_wire_bitwise_equal(out.results.at(ik), r_ref, ik);
  }
}

/// Accumulate the temperature C_l over a result map in ascending-ik
/// order; bitwise-equal inputs in the same order sum bitwise equal.
std::vector<double> cl_of(const pp::RunOutput& out,
                          const pp::KSchedule& s) {
  plinger::spectra::ClAccumulator acc(24,
                                      plinger::spectra::PowerLawSpectrum{});
  for (const auto& [ik, r] : out.results) {
    acc.add_mode(r.k, s.weight_of_ik(ik), r.f_gamma);
  }
  return acc.temperature().cl;
}

enum class Driver { serial, autotask, plinger };

pp::RunOutput run_driver(Driver d, const pp::KSchedule& s,
                         const pp::RunSetup& setup) {
  const auto& w = world();
  switch (d) {
    case Driver::serial:
      return pp::run_linger_serial(w.bg, w.rec, w.cfg, s, setup);
    case Driver::autotask:
      return pp::run_linger_autotask(w.bg, w.rec, w.cfg, s, setup, 2);
    case Driver::plinger:
      return pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, 2);
  }
  throw plinger::InvalidArgument("unknown driver");
}

const char* driver_name(Driver d) {
  switch (d) {
    case Driver::serial: return "Serial";
    case Driver::autotask: return "Autotask";
    case Driver::plinger: return "Plinger";
  }
  return "";
}

class CrashResume : public ::testing::TestWithParam<Driver> {};

}  // namespace

TEST_P(CrashResume, KillAfterThreeModesThenResumeBitwise) {
  const Driver d = GetParam();
  const auto path = temp_path(driver_name(d));
  const auto s = make_schedule();

  // Phase 1: "crash" after 3 checkpointed modes.  Parallel drivers may
  // finish modes already in flight when the stop trips, so the count is
  // >= 3 but must be short of the full run.
  auto setup = setup_for(path);
  setup.store.stop_after = 3;
  const auto partial = run_driver(d, s, setup);
  EXPECT_GE(partial.n_modes_computed, 3u);
  ASSERT_LT(partial.results.size(), kNModes);
  EXPECT_EQ(partial.n_modes_loaded, 0u);

  // The journal holds exactly the completed modes, no torn tail.
  const auto journal = ps::read_journal(path);
  EXPECT_EQ(journal.iks.size(), partial.results.size());
  EXPECT_FALSE(journal.torn_tail);

  // Phase 2: resume.  Only the remainder is computed; the union is
  // bitwise identical to the uninterrupted reference.  The progress
  // hook logs each landing with the journal's record count at that
  // moment (it runs under the sink's lock, so no append races it).
  struct Landing {
    std::size_t landed, total, journaled;
  };
  std::vector<Landing> landings;
  setup.store.stop_after = 0;
  setup.progress = [&](std::size_t landed, std::size_t total) {
    landings.push_back({landed, total, ps::read_journal(path).iks.size()});
  };
  const auto resumed = run_driver(d, s, setup);
  const std::size_t n_loaded = partial.results.size();
  EXPECT_EQ(resumed.n_modes_loaded, n_loaded);
  EXPECT_EQ(resumed.n_modes_loaded + resumed.n_modes_computed, kNModes);
  expect_matches_reference(resumed);

  // One landing per mode, counted 1..kNModes in order: the journaled
  // modes 1..n_loaded before any computed one (the journal has grown by
  // nothing yet), then each computed mode right after its append.
  ASSERT_EQ(landings.size(), kNModes);
  for (std::size_t i = 0; i < kNModes; ++i) {
    EXPECT_EQ(landings[i].landed, i + 1);
    EXPECT_EQ(landings[i].total, kNModes);
    EXPECT_EQ(landings[i].journaled, std::max(i + 1, n_loaded)) << i;
  }

  // The journal converged to one record per mode, no duplicates.
  auto iks = ps::read_journal(path).iks;
  std::sort(iks.begin(), iks.end());
  ASSERT_EQ(iks.size(), kNModes);
  for (std::size_t i = 0; i < kNModes; ++i) EXPECT_EQ(iks[i], i + 1);

  // And the assembled spectrum is bitwise identical too.
  EXPECT_EQ(cl_of(resumed, s), cl_of(reference(), s));
}

TEST_P(CrashResume, FullyResumedRunComputesNothing) {
  const Driver d = GetParam();
  const auto path = temp_path(std::string("full") + driver_name(d));
  const auto s = make_schedule();
  const auto setup = setup_for(path);

  const auto first = run_driver(d, s, setup);
  EXPECT_EQ(first.n_modes_computed, kNModes);

  // Second run: everything loads, nothing integrates, the (empty)
  // residual schedule still terminates every driver.
  const auto second = run_driver(d, s, setup);
  EXPECT_EQ(second.n_modes_loaded, kNModes);
  EXPECT_EQ(second.n_modes_computed, 0u);
  expect_matches_reference(second);
  // Degenerate-run guards: a near-instant run must not divide by ~zero.
  EXPECT_GE(second.parallel_efficiency(), 0.0);
  EXPECT_GE(second.flops_per_second(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, CrashResume,
                         ::testing::Values(Driver::serial,
                                           Driver::autotask,
                                           Driver::plinger),
                         [](const auto& info) {
                           return std::string(driver_name(info.param));
                         });

TEST(CrashResumeCross, SerialCrashResumedByPlinger) {
  // A journal written by one driver resumes under another: the store
  // keys on run identity (physics), not on scheduling or transport.
  const auto path = temp_path("cross");
  const auto s = make_schedule();
  auto setup = setup_for(path);
  setup.store.stop_after = 3;
  const auto partial = run_driver(Driver::serial, s, setup);
  ASSERT_EQ(partial.results.size(), 3u);  // serial stop is exact

  setup.store.stop_after = 0;
  const auto resumed = run_driver(Driver::plinger, s, setup);
  EXPECT_EQ(resumed.n_modes_loaded, 3u);
  EXPECT_EQ(resumed.n_modes_computed, kNModes - 3u);
  expect_matches_reference(resumed);
}

TEST(CrashResumeCross, ResumeAcrossIssueOrders) {
  // The identity deliberately excludes the issue order: a store written
  // largest-first resumes natural-order (same physics, same bits).
  const auto path = temp_path("order");
  const auto s_lf = make_schedule();
  auto setup = setup_for(path);
  setup.store.stop_after = 3;
  run_driver(Driver::serial, s_lf, setup);

  const pp::KSchedule s_nat(plinger::math::linspace(0.002, 0.02, kNModes),
                            pp::IssueOrder::natural);
  setup.store.stop_after = 0;
  const auto resumed =
      pp::run_linger_serial(world().bg, world().rec, world().cfg, s_nat,
                            setup);
  EXPECT_EQ(resumed.n_modes_loaded, 3u);
  expect_matches_reference(resumed);
}

TEST(CrashResumeTrace, LoadedModesAppearAsZeroCostSpans) {
  const auto path = temp_path("trace");
  const auto s = make_schedule();
  auto setup = setup_for(path);
  run_driver(Driver::serial, s, setup);

  setup.trace.enabled = true;
  const auto resumed = run_driver(Driver::plinger, s, setup);
  ASSERT_NE(resumed.trace, nullptr);

  // Every loaded mode is a completed span with zero duration, zero CPU,
  // and zero flops on the synthetic store row (worker 0): the report
  // counts the mode as done without crediting this run any work.
  std::size_t zero_cost = 0;
  for (const auto& span : resumed.trace->spans) {
    if (span.worker != 0) continue;
    EXPECT_TRUE(span.completed);
    EXPECT_EQ(span.t_start, span.t_finish);
    EXPECT_EQ(span.cpu_seconds, 0.0);
    EXPECT_EQ(span.flops, 0u);
    ++zero_cost;
  }
  EXPECT_EQ(zero_cost, kNModes);

  const auto report = pp::make_run_report(*resumed.trace);
  EXPECT_EQ(report.n_modes_completed, kNModes);
  EXPECT_EQ(report.total_cpu_seconds, 0.0);
  EXPECT_EQ(report.total_flops, 0u);
}

TEST(CrashResumeFaults, RetriedModesCheckpointExactlyOnce) {
  // Tag-7 interaction: a mode that fails and is requeued must reach the
  // journal exactly once — the checkpoint happens at the master sink,
  // after the retry machinery has settled, never on the failed attempt.
  const auto path = temp_path("tag7");
  const pp::KSchedule sched(plinger::math::linspace(0.01, 0.1, 12),
                            pp::IssueOrder::largest_first);
  pp::RunSetup setup;
  setup.tau_end = 100.0;
  setup.lmax_cap = 0.0;
  setup.fault.max_retries = 5;

  auto fail_count = std::make_shared<std::atomic<int>>(0);
  const pp::EvolveFn flaky =
      [fail_count](const pb::EvolveRequest& req) -> pb::ModeResult {
    if (fail_count->fetch_add(1) < 3) {
      throw plinger::NumericalFailure("transient");
    }
    pb::ModeResult r;
    r.k = req.k;
    r.lmax = 8;
    r.f_gamma.assign(9, req.k);
    r.g_gamma.assign(5, 0.0);
    return r;
  };

  ps::StoreOptions sopts;
  sopts.path = path;
  ps::RunIdentity id;
  id.value = 0xABCDu;  // protocol-level test: any identity works
  ps::ModeResultStore store(sopts, id, sched.size());

  pm::InProcWorld world(3);
  std::vector<std::jthread> threads;
  for (int rank = 1; rank <= 2; ++rank) {
    threads.emplace_back([&, rank] {
      auto ctx = pm::initpass(world, rank);
      pp::run_worker(ctx, sched, id, flaky);
    });
  }
  auto ctx = pm::initpass(world, 0);
  const auto stats = pp::run_master(
      ctx, sched, setup, id,
      [&store](std::size_t ik, const pb::ModeResult& r) {
        store.append(ik, r);
      });
  threads.clear();
  store.flush();

  EXPECT_GE(stats.n_requeued, 1u);
  EXPECT_TRUE(stats.failed_ik.empty());
  auto iks = ps::read_journal(path).iks;
  std::sort(iks.begin(), iks.end());
  std::vector<std::size_t> expected(sched.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i + 1;
  EXPECT_EQ(iks, expected);  // each ik exactly once, none missing
}
