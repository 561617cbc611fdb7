// Fault-tolerant runtime sweep: a master/worker run must survive the
// death or stall of any single worker, at any protocol phase, and still
// deliver results bitwise identical to the fault-free run (recovered
// modes are recomputed from the same inputs by a surviving worker, so
// not a bit may differ).
//
// Two layers:
//  * protocol-level matrix over fake evolvers (exhaustive and fast):
//    kill each worker at each phase, plus stall, quarantine, and
//    all-workers-lost termination;
//  * driver-level matrix over real Boltzmann integrations, comparing
//    run_plinger_threads under injection against the serial reference,
//    including checkpoint-store interaction (journaled modes are never
//    recomputed after a failure).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "math/spline.hpp"
#include "mp/fault_world.hpp"
#include "plinger/driver.hpp"
#include "plinger/protocol.hpp"

namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;
namespace pm = plinger::mp;
namespace pc = plinger::cosmo;

namespace {

// ---------------------------------------------------------------------
// Protocol-level harness (fake evolvers).

pb::ModeResult fake_result(const pb::EvolveRequest& req) {
  pb::ModeResult r;
  r.k = req.k;
  r.lmax = 8;
  r.f_gamma.assign(9, req.k);
  r.g_gamma.assign(5, 0.0);
  r.final_state.delta_c = -req.k;
  return r;
}

/// The identity master and workers share in the protocol-level runs.
constexpr plinger::store::RunIdentity kRun{0xABCDu};

pp::KSchedule sched_n(std::size_t n) {
  return pp::KSchedule(plinger::math::linspace(0.01, 0.1, n),
                       pp::IssueOrder::largest_first);
}

struct FaultRun {
  std::map<std::size_t, int> sink_count;  // per-ik sink calls (dedup!)
  std::map<std::size_t, double> sunk_k;
  pp::MasterStats stats;
};

/// Master + n identical fake workers over a fault-injecting world.
/// Worker threads swallow RankKilled exactly like the real driver.
///
/// With `rendezvous` set, a worker that no plan action targets
/// completes no mode until every planned fault has fired.  Fake modes
/// are instant, so without the gate a fast worker can drain the whole
/// schedule before the victim's thread is even scheduled and the fault
/// never fires; worse, a kill firing on the schedule's *last* result
/// leaves nothing outstanding, so the master legitimately exits before
/// the death notice arrives and the loss is invisible — both harness
/// races, not protocol ones.  Holding the healthy workers back
/// guarantees the victim dies while most of the schedule is still
/// pending, which is the scenario the matrix means to pin down.
FaultRun run_faulty(const pp::KSchedule& sched, int n_workers,
                    pm::FaultPlan plan, pp::FaultConfig fc = {},
                    pp::EvolveFn evolve = nullptr,
                    bool rendezvous = false) {
  if (!evolve) {
    evolve = [](const pb::EvolveRequest& req) {
      return fake_result(req);
    };
  }
  const std::size_t n_actions = plan.actions.size();
  std::vector<char> is_target(static_cast<std::size_t>(n_workers) + 1, 0);
  for (const pm::FaultAction& a : plan.actions) {
    if (a.rank >= 1 && a.rank <= n_workers) {
      is_target[static_cast<std::size_t>(a.rank)] = 1;
    }
  }
  pm::FaultInjectingWorld world(n_workers + 1, std::move(plan));
  pp::RunSetup setup;
  setup.tau_end = 100.0;
  setup.lmax_cap = 0.0;  // fake evolvers ignore lmax
  setup.fault = fc;

  std::vector<std::jthread> threads;
  for (int rank = 1; rank <= n_workers; ++rank) {
    threads.emplace_back([&, rank] {
      pp::EvolveFn fn = evolve;
      if (rendezvous && !is_target[static_cast<std::size_t>(rank)]) {
        fn = [&world, n_actions, inner = evolve](
                 const pb::EvolveRequest& req) {
          const auto t0 = std::chrono::steady_clock::now();
          while (world.n_fired() < n_actions &&
                 std::chrono::steady_clock::now() - t0 <
                     std::chrono::seconds(5)) {  // valve: never hang
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          return inner(req);
        };
      }
      try {
        auto ctx = pm::initpass(world, rank);
        pp::run_worker(ctx, sched, kRun, fn);
      } catch (const pm::RankKilled&) {
        // simulated process death — the master recovers
      }
    });
  }
  FaultRun out;
  auto ctx = pm::initpass(world, 0);
  out.stats = pp::run_master(
      ctx, sched, setup, kRun,
      [&out](std::size_t ik, const pb::ModeResult& r) {
        ++out.sink_count[ik];
        out.sunk_k[ik] = r.k;
      });
  threads.clear();
  return out;
}

/// Every mode sunk exactly once, carrying the right wavenumber.
void expect_complete(const FaultRun& run, const pp::KSchedule& sched) {
  ASSERT_EQ(run.sink_count.size(), sched.size());
  for (std::size_t ik = 1; ik <= sched.size(); ++ik) {
    ASSERT_TRUE(run.sink_count.count(ik)) << "ik " << ik << " missing";
    EXPECT_EQ(run.sink_count.at(ik), 1) << "ik " << ik << " sunk twice";
    EXPECT_EQ(run.sunk_k.at(ik), sched.k_of_ik(ik)) << "ik " << ik;
  }
}

/// One kill scenario: the victim rank and the protocol phase it dies at.
struct KillPhase {
  const char* name;
  pm::FaultKind kind;
  int tag;
};

constexpr KillPhase kKillPhases[] = {
    {"before-first-request", pm::FaultKind::kill_before_send, 2},
    {"before-result-header", pm::FaultKind::kill_before_send, 4},
    {"mid-result", pm::FaultKind::kill_before_send, 5},
    {"after-result", pm::FaultKind::kill_after_send, 4},
};

pm::FaultPlan kill_plan(const KillPhase& phase, int victim) {
  pm::FaultAction a;
  a.kind = phase.kind;
  a.rank = victim;
  a.tag = phase.tag;
  pm::FaultPlan plan;
  plan.actions.push_back(a);
  // Healthy workers park their results until the kill has fired: under
  // machine load the victim's thread can otherwise be starved until the
  // rest of the pool drains the schedule, and the planned kill silently
  // never happens (the driver-level matrix has no EvolveFn rendezvous
  // to gate it the way run_faulty does).
  plan.hold_healthy_results = true;
  return plan;
}

// ---------------------------------------------------------------------
// Driver-level harness (real physics, small grid).

constexpr std::size_t kNModes = 6;

struct PhysWorld {
  pc::Background bg{pc::CosmoParams::standard_cdm()};
  pc::Recombination rec{bg};
  pb::PerturbationConfig cfg;
  PhysWorld() {
    cfg.lmax_photon = 24;
    cfg.lmax_polarization = 12;
    cfg.lmax_neutrino = 12;
    cfg.rtol = 1e-5;
  }
};
const PhysWorld& phys() {
  static PhysWorld w;
  return w;
}

pp::KSchedule phys_schedule() {
  return pp::KSchedule(plinger::math::linspace(0.002, 0.02, kNModes),
                       pp::IssueOrder::largest_first);
}

pp::RunSetup phys_setup() {
  pp::RunSetup setup;
  setup.tau_end = 600.0;  // stop well before today: keeps the sweep fast
  setup.lmax_cap = 24;
  return setup;
}

/// The fault-free serial reference all faulted runs must match bitwise.
const std::map<std::size_t, pb::ModeResult>& reference() {
  static const auto ref = [] {
    const auto& w = phys();
    const auto s = phys_schedule();
    return pp::run_linger_serial(w.bg, w.rec, w.cfg, s, phys_setup())
        .results;
  }();
  return ref;
}

/// Bitwise equality on every wire-carried field (the message-passing
/// driver reassembles results from the tag-4/5 records, which do not
/// carry n_rejected, alpha, or pi_pol).
void expect_bitwise_wire_equal(const pb::ModeResult& a,
                               const pb::ModeResult& b, std::size_t ik) {
  EXPECT_EQ(a.k, b.k) << ik;
  EXPECT_EQ(a.lmax, b.lmax) << ik;
  EXPECT_EQ(a.flops, b.flops) << ik;
  EXPECT_EQ(a.stats.n_accepted, b.stats.n_accepted) << ik;
  EXPECT_EQ(a.stats.n_rhs, b.stats.n_rhs) << ik;
  EXPECT_EQ(a.tau_init, b.tau_init) << ik;
  EXPECT_EQ(a.tau_switch, b.tau_switch) << ik;
  EXPECT_EQ(a.tau_end, b.tau_end) << ik;
  const auto& fa = a.final_state;
  const auto& fb = b.final_state;
  EXPECT_EQ(fa.a, fb.a) << ik;
  EXPECT_EQ(fa.delta_c, fb.delta_c) << ik;
  EXPECT_EQ(fa.delta_b, fb.delta_b) << ik;
  EXPECT_EQ(fa.delta_g, fb.delta_g) << ik;
  EXPECT_EQ(fa.delta_nu, fb.delta_nu) << ik;
  EXPECT_EQ(fa.delta_m, fb.delta_m) << ik;
  EXPECT_EQ(fa.theta_b, fb.theta_b) << ik;
  EXPECT_EQ(fa.theta_g, fb.theta_g) << ik;
  EXPECT_EQ(fa.eta, fb.eta) << ik;
  EXPECT_EQ(fa.h, fb.h) << ik;
  EXPECT_EQ(fa.phi, fb.phi) << ik;
  EXPECT_EQ(fa.psi, fb.psi) << ik;
  ASSERT_EQ(a.f_gamma.size(), b.f_gamma.size()) << ik;
  for (std::size_t l = 0; l < a.f_gamma.size(); ++l) {
    EXPECT_EQ(a.f_gamma[l], b.f_gamma[l]) << ik << " l=" << l;
  }
  ASSERT_EQ(a.g_gamma.size(), b.g_gamma.size()) << ik;
  for (std::size_t l = 0; l < a.g_gamma.size(); ++l) {
    EXPECT_EQ(a.g_gamma[l], b.g_gamma[l]) << ik << " l=" << l;
  }
}

void expect_matches_reference(
    const std::map<std::size_t, pb::ModeResult>& results) {
  const auto& ref = reference();
  ASSERT_EQ(results.size(), ref.size());
  for (const auto& [ik, r_ref] : ref) {
    ASSERT_TRUE(results.count(ik)) << ik;
    expect_bitwise_wire_equal(results.at(ik), r_ref, ik);
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Protocol-level fault matrix.

TEST(FaultMatrix, KillAnyWorkerAnyPhaseStillCompletes) {
  const auto sched = sched_n(12);
  for (const int n_workers : {2, 4}) {
    for (int victim = 1; victim <= n_workers; ++victim) {
      for (const KillPhase& phase : kKillPhases) {
        SCOPED_TRACE(std::string(phase.name) + " victim " +
                     std::to_string(victim) + "/" +
                     std::to_string(n_workers));
        const auto run =
            run_faulty(sched, n_workers, kill_plan(phase, victim), {},
                       nullptr, /*rendezvous=*/true);
        expect_complete(run, sched);
        ASSERT_EQ(run.stats.lost_workers.size(), 1u);
        EXPECT_EQ(run.stats.lost_workers[0], victim);
        EXPECT_TRUE(run.stats.quarantined_ik.empty());
        EXPECT_TRUE(run.stats.failed_ik.empty());
      }
    }
  }
}

TEST(FaultMatrix, SeededKillSweepIsAlwaysRecovered) {
  const auto sched = sched_n(10);
  for (unsigned seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto run =
        run_faulty(sched, 3, pm::FaultPlan::seeded_kill(seed, 3), {},
                   nullptr, /*rendezvous=*/true);
    expect_complete(run, sched);
    EXPECT_EQ(run.stats.lost_workers.size(), 1u);
  }
}

TEST(FaultMatrix, StallTimeoutReassignsAndDeduplicatesLateResult) {
  // One worker sleeps through its first mode; the master times it out,
  // a surviving worker recomputes the mode, and the sleeper's late
  // result must not be sunk a second time.
  const auto sched = sched_n(8);
  std::atomic<int> naps{0};
  pp::EvolveFn sleepy =
      [&naps](const pb::EvolveRequest& req) -> pb::ModeResult {
    if (naps.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    return fake_result(req);
  };
  pp::FaultConfig fc;
  fc.timeout_seconds = 0.1;
  fc.timeout_floor_seconds = 0.02;
  const auto run = run_faulty(sched, 2, pm::FaultPlan{}, fc, sleepy);
  expect_complete(run, sched);
  EXPECT_EQ(run.stats.lost_workers.size(), 1u);
  EXPECT_GE(run.stats.n_reassigned, 1u);
}

TEST(FaultMatrix, StallDetectionCoversSilentDeath) {
  // notify_on_kill off: no tag-7 death notice, so only the per-mode
  // deadline can save the run.
  const auto sched = sched_n(8);
  auto plan = kill_plan(kKillPhases[1], /*victim=*/1);  // dies mid-mode
  plan.notify_on_kill = false;
  pp::FaultConfig fc;
  fc.timeout_seconds = 0.15;
  fc.timeout_floor_seconds = 0.02;
  const auto run = run_faulty(sched, 2, std::move(plan), fc, nullptr,
                              /*rendezvous=*/true);
  expect_complete(run, sched);
  ASSERT_EQ(run.stats.lost_workers.size(), 1u);
  EXPECT_EQ(run.stats.lost_workers[0], 1);
}

TEST(FaultMatrix, PoisonModeIsQuarantinedNotRetriedForever) {
  // With max_reassignments = 0, the first reassignment quarantines the
  // mode instead of handing it to the next victim.
  const auto sched = sched_n(10);
  pp::FaultConfig fc;
  fc.max_reassignments = 0;
  const auto run = run_faulty(sched, 2, kill_plan(kKillPhases[1], 1), fc,
                              nullptr, /*rendezvous=*/true);
  EXPECT_EQ(run.sink_count.size(), sched.size() - 1);
  ASSERT_EQ(run.stats.quarantined_ik.size(), 1u);
  EXPECT_EQ(run.stats.n_reassigned, 0u);
  // The quarantined mode is exactly the one the victim held.
  EXPECT_FALSE(run.sink_count.count(run.stats.quarantined_ik[0]));
}

TEST(FaultMatrix, AllWorkersLostTerminatesDegraded) {
  const auto sched = sched_n(10);
  pm::FaultPlan plan;
  for (int rank = 1; rank <= 2; ++rank) {
    pm::FaultAction a;
    a.kind = pm::FaultKind::kill_before_send;
    a.rank = rank;
    a.tag = 4;  // each dies while computing its first mode
    plan.actions.push_back(a);
  }
  const auto run = run_faulty(sched, 2, std::move(plan), {}, nullptr,
                              /*rendezvous=*/true);
  EXPECT_TRUE(run.stats.all_workers_lost);
  EXPECT_EQ(run.stats.lost_workers.size(), 2u);
  EXPECT_LT(run.sink_count.size(), sched.size());
  EXPECT_GT(run.stats.n_unissued, 0u);
}

TEST(FaultMatrix, DroppedResultIsRecoveredByTimeout) {
  // A flaky link eats one result (header + payload); the worker is
  // healthy but the master never hears back, times the mode out, and
  // reassigns it.  The "lost" worker was stopped, so the run finishes
  // on the survivor with every mode present.
  const auto sched = sched_n(8);
  pm::FaultPlan plan;
  pm::FaultAction a;
  a.kind = pm::FaultKind::drop_message;
  a.rank = 1;
  a.tag = 4;
  plan.actions.push_back(a);
  pp::FaultConfig fc;
  fc.timeout_seconds = 0.1;
  fc.timeout_floor_seconds = 0.02;
  const auto run = run_faulty(sched, 2, std::move(plan), fc, nullptr,
                              /*rendezvous=*/true);
  expect_complete(run, sched);
  EXPECT_GE(run.stats.n_reassigned, 1u);
}

TEST(FaultMatrix, DuplicatedResultIsSunkOnce) {
  const auto sched = sched_n(8);
  pm::FaultPlan plan;
  pm::FaultAction a;
  a.kind = pm::FaultKind::duplicate_message;
  a.rank = 1;
  a.tag = 4;
  plan.actions.push_back(a);
  const auto run = run_faulty(sched, 2, std::move(plan), {}, nullptr,
                              /*rendezvous=*/true);
  expect_complete(run, sched);  // asserts each ik sunk exactly once
  EXPECT_TRUE(run.stats.lost_workers.empty());
}

TEST(FaultMatrix, IntegrationFailureRetriesStillBounded) {
  // The legacy tag-7 path (code 0) keeps its bounded-retry semantics
  // under the new master: a mode that always fails is retried
  // max_retries times after the rest of the schedule, then recorded.
  const auto sched = sched_n(10);
  pp::EvolveFn poisoned =
      [&sched](const pb::EvolveRequest& req) -> pb::ModeResult {
    if (req.k == sched.k_of_ik(1)) {
      throw plinger::NumericalFailure("always fails");
    }
    return fake_result(req);
  };
  pp::FaultConfig fc;
  fc.max_retries = 2;
  const auto run = run_faulty(sched, 2, pm::FaultPlan{}, fc, poisoned);
  EXPECT_EQ(run.sink_count.size(), sched.size() - 1);
  ASSERT_EQ(run.stats.failed_ik.size(), 1u);
  EXPECT_EQ(run.stats.failed_ik[0], 1u);
  EXPECT_EQ(run.stats.n_requeued, 2u);
  EXPECT_TRUE(run.stats.lost_workers.empty());
}

// ---------------------------------------------------------------------
// Driver-level matrix: real physics, bitwise against the serial
// reference.

TEST(FaultDriver, KillMatrixBitwiseIdenticalToFaultFreeRun) {
  const auto& w = phys();
  const auto s = phys_schedule();
  for (const int workers : {2, 4}) {
    for (const int victim : {1, workers}) {
      for (const KillPhase& phase : kKillPhases) {
        SCOPED_TRACE(std::string(phase.name) + " victim " +
                     std::to_string(victim) + "/" +
                     std::to_string(workers));
        auto setup = phys_setup();
        setup.inject = kill_plan(phase, victim);
        const auto out = pp::run_plinger_threads(w.bg, w.rec, w.cfg, s,
                                                 setup, workers);
        expect_matches_reference(out.results);
        EXPECT_EQ(out.n_workers_lost, 1u);
        EXPECT_TRUE(out.completed_degraded);
        ASSERT_EQ(out.master.lost_workers.size(), 1u);
        EXPECT_EQ(out.master.lost_workers[0], victim);
      }
    }
  }
}

TEST(FaultDriver, LibraryPersonalitiesSurviveAKill) {
  const auto& w = phys();
  const auto s = phys_schedule();
  for (const auto lib : {pm::Library::mpisim, pm::Library::mplsim}) {
    SCOPED_TRACE(lib == pm::Library::mpisim ? "mpisim" : "mplsim");
    auto setup = phys_setup();
    setup.inject = kill_plan(kKillPhases[3], 1);  // dies after a result
    const auto out =
        pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, 2, lib);
    expect_matches_reference(out.results);
    EXPECT_EQ(out.n_workers_lost, 1u);
  }
}

TEST(FaultDriver, StallTimeoutRecoversWithTraceEvidence) {
  // A delayed result (stalled link) trips the per-mode deadline; the
  // mode is recomputed elsewhere and the late original deduplicated.
  // The trace must show the recovery: a stall fault plus a reassign.
  // Modes here cost ~1 ms of CPU, but the healthy worker's deadline is
  // wall-clock: the 1 s floor keeps a descheduled healthy thread on a
  // loaded host from being declared stalled too, and the delay stays
  // well past the stalled worker's 1.3 s allowance.  The healthy worker
  // holds its first result until the delay has fired: six such modes
  // are gone in a few ms, so a stalled thread that starts 2 ms late
  // would otherwise find the schedule drained and never send the result
  // the delay triggers on.
  const auto& w = phys();
  const auto s = phys_schedule();
  auto setup = phys_setup();
  pm::FaultAction a;
  a.kind = pm::FaultKind::delay_message;
  a.rank = 1;
  a.tag = 4;
  a.delay_seconds = 3.0;
  setup.inject.actions.push_back(a);
  setup.inject.hold_healthy_results = true;
  setup.fault.timeout_seconds = 0.3;
  setup.fault.timeout_floor_seconds = 1.0;
  setup.trace.enabled = true;
  std::vector<std::pair<std::size_t, std::size_t>> landings;
  setup.progress = [&landings](std::size_t landed, std::size_t total) {
    landings.emplace_back(landed, total);
  };
  const auto out =
      pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, 2);
  expect_matches_reference(out.results);
  EXPECT_EQ(out.n_workers_lost, 1u);
  EXPECT_GE(out.n_modes_reassigned, 1u);
  ASSERT_NE(out.trace, nullptr);
  bool saw_stall = false, saw_reassign = false;
  for (const auto& f : out.trace->faults) {
    saw_stall |= f.kind == pp::FaultEvent::Kind::stall_timeout;
    saw_reassign |= f.kind == pp::FaultEvent::Kind::reassign;
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_reassign);
  // The stalled worker recorded its span before its delayed send, so
  // the trace holds one completed span more than there are modes; the
  // sink lands each mode once, and progress counts landings.
  std::size_t completed_spans = 0;
  for (const auto& span : out.trace->spans) completed_spans += span.completed;
  EXPECT_EQ(completed_spans, kNModes + 1);
  ASSERT_EQ(landings.size(), kNModes);
  for (std::size_t i = 0; i < kNModes; ++i) {
    EXPECT_EQ(landings[i].first, i + 1);
    EXPECT_EQ(landings[i].second, kNModes);
  }
  const auto report = pp::make_run_report(*out.trace);
  EXPECT_GE(report.n_workers_lost, 1u);
  EXPECT_GE(report.n_reassigned, 1u);
}

TEST(FaultDriver, TraceRecordsWorkerLostInstant) {
  const auto& w = phys();
  const auto s = phys_schedule();
  auto setup = phys_setup();
  setup.inject = kill_plan(kKillPhases[1], 2);  // dies mid-mode
  setup.trace.enabled = true;
  const auto out =
      pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, 2);
  expect_matches_reference(out.results);
  ASSERT_NE(out.trace, nullptr);
  bool saw_lost = false;
  for (const auto& f : out.trace->faults) {
    if (f.kind == pp::FaultEvent::Kind::worker_lost && f.worker == 2) {
      saw_lost = true;
    }
  }
  EXPECT_TRUE(saw_lost);
}

TEST(FaultDriver, JournaledModesAreNeverRecomputedAfterAFailure) {
  // Run 1: a worker dies and its mode is quarantined (reassignment cap
  // 0), so the journal holds all modes but one.  Run 2 resumes
  // fault-free: it must load every journaled mode untouched and compute
  // exactly the missing one — never redo work a failure already paid
  // for.
  const auto& w = phys();
  const auto s = phys_schedule();
  const std::string path =
      ::testing::TempDir() + "/fault_store_journal.bin";
  std::remove(path.c_str());

  auto setup1 = phys_setup();
  setup1.inject = kill_plan(kKillPhases[1], 1);
  setup1.fault.max_reassignments = 0;
  setup1.store.path = path;
  const auto run1 =
      pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup1, 2);
  ASSERT_EQ(run1.master.quarantined_ik.size(), 1u);
  const std::size_t missing = run1.master.quarantined_ik[0];
  EXPECT_EQ(run1.results.size(), kNModes - 1);
  EXPECT_TRUE(run1.completed_degraded);

  auto setup2 = phys_setup();
  setup2.store.path = path;
  const auto run2 =
      pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup2, 2);
  EXPECT_EQ(run2.n_modes_loaded, kNModes - 1);
  EXPECT_EQ(run2.n_modes_computed, 1u);
  EXPECT_TRUE(run2.results.count(missing));
  expect_matches_reference(run2.results);
  EXPECT_FALSE(run2.completed_degraded);
  std::remove(path.c_str());
}
