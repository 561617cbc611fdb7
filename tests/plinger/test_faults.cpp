#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "math/spline.hpp"
#include "plinger/protocol.hpp"
#include "plinger/virtual_cluster.hpp"

namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;
namespace pm = plinger::mp;

namespace {

/// A fake evolve function: instant "result" carrying the k it was given.
pb::ModeResult fake_result(const pb::EvolveRequest& req) {
  pb::ModeResult r;
  r.k = req.k;
  r.lmax = 8;
  r.f_gamma.assign(9, req.k);
  r.g_gamma.assign(5, 0.0);
  r.final_state.delta_c = -req.k;
  return r;
}

/// The identity master and workers share in these protocol-level runs.
constexpr plinger::store::RunIdentity kRun{0xABCDu};

/// Run master+workers over a world with the given per-worker evolve
/// functions; returns (results-count, master stats).
std::pair<std::size_t, pp::MasterStats> run_protocol(
    const pp::KSchedule& sched, const std::vector<pp::EvolveFn>& workers,
    int max_retries = 2, double timeout_seconds = 0.0) {
  pm::InProcWorld world(static_cast<int>(workers.size()) + 1);
  pp::RunSetup setup;
  setup.tau_end = 100.0;
  setup.lmax_cap = 0.0;  // fake evolvers ignore lmax
  setup.fault.max_retries = max_retries;
  setup.fault.timeout_seconds = timeout_seconds;

  std::vector<std::jthread> threads;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    threads.emplace_back([&, i] {
      auto ctx = pm::initpass(world, static_cast<int>(i) + 1);
      pp::run_worker(ctx, sched, kRun, workers[i]);
    });
  }
  std::size_t n_results = 0;
  auto ctx = pm::initpass(world, 0);
  const auto stats = pp::run_master(
      ctx, sched, setup, kRun,
      [&n_results](std::size_t, const pb::ModeResult&) { ++n_results; });
  threads.clear();
  return {n_results, stats};
}

pp::KSchedule sched_n(std::size_t n) {
  return pp::KSchedule(plinger::math::linspace(0.01, 0.1, n),
                       pp::IssueOrder::largest_first);
}

}  // namespace

TEST(FaultTolerance, TransientFailureIsRetried) {
  // One worker fails the first 3 calls, then recovers.
  auto fail_count = std::make_shared<std::atomic<int>>(0);
  pp::EvolveFn flaky =
      [fail_count](const pb::EvolveRequest& req) -> pb::ModeResult {
    if (fail_count->fetch_add(1) < 3) {
      throw plinger::NumericalFailure("transient");
    }
    return fake_result(req);
  };
  // The good worker holds its first result until the flaky one has
  // failed three times (valve: 5 s): on a loaded machine it could
  // otherwise drain the schedule before the flaky thread ever runs.
  pp::EvolveFn good = [fail_count](const pb::EvolveRequest& req) {
    const auto t0 = std::chrono::steady_clock::now();
    while (fail_count->load() < 3 &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5)) {
      std::this_thread::yield();
    }
    return fake_result(req);
  };
  const auto sched = sched_n(12);
  const auto [n, stats] = run_protocol(sched, {flaky, good}, 5);
  EXPECT_EQ(n, 12u);
  EXPECT_GE(stats.n_requeued, 1u);
  EXPECT_TRUE(stats.failed_ik.empty());
}

TEST(FaultTolerance, PersistentFailureIsBounded) {
  // Every evolve of one k throws: the master gives up after max_retries
  // and the run still terminates with the other modes done.
  pp::EvolveFn poisoned = [](const pb::EvolveRequest& req) -> pb::ModeResult {
    if (std::abs(req.k - 0.1) < 1e-12) {
      throw plinger::NumericalFailure("always fails at k=0.1");
    }
    return fake_result(req);
  };
  const auto sched = sched_n(10);
  const auto [n, stats] = run_protocol(sched, {poisoned, poisoned}, 2);
  EXPECT_EQ(n, 9u);
  ASSERT_EQ(stats.failed_ik.size(), 1u);
  EXPECT_DOUBLE_EQ(sched.k_of_ik(stats.failed_ik[0]), 0.1);
  EXPECT_EQ(stats.n_requeued, 2u);  // two retries before giving up
}

TEST(FaultTolerance, AllWorkersFlakyStillCompletes) {
  auto countdown = std::make_shared<std::atomic<int>>(6);
  pp::EvolveFn flaky =
      [countdown](const pb::EvolveRequest& req) -> pb::ModeResult {
    if (countdown->fetch_sub(1) > 0) {
      throw plinger::NumericalFailure("warming up");
    }
    return fake_result(req);
  };
  const auto sched = sched_n(8);
  const auto [n, stats] = run_protocol(sched, {flaky, flaky, flaky}, 10);
  EXPECT_EQ(n, 8u);
  EXPECT_TRUE(stats.failed_ik.empty());
}

TEST(FaultTolerance, StallTimeoutBeyondAnyDeadlineLosesNoWorker) {
  // The master's stall wait is probe_for(timeout).  Timed in int64
  // nanoseconds, a 1e10 s wait overflows (past about 9.2e9 s): undefined
  // behaviour, and on x86 a deadline in the past that declared every
  // worker stalled before it could answer.  Beyond 1e9 s the wait has
  // no deadline.
  const auto sched = sched_n(8);
  const auto [n, stats] =
      run_protocol(sched, {fake_result, fake_result}, 2, 1e10);
  EXPECT_EQ(n, 8u);
  EXPECT_TRUE(stats.lost_workers.empty());
  EXPECT_FALSE(stats.all_workers_lost);
}

TEST(FaultTolerance, ThrowingSinkStopsWorkersCleanly) {
  // A sink failure (e.g. the checkpoint store surfacing a disk-full
  // write error) must propagate out of run_master without deadlocking
  // the worker joins: the master owes every worker a stop message
  // before it unwinds.
  const auto sched = sched_n(8);
  pm::InProcWorld world(3);
  pp::RunSetup setup;
  setup.tau_end = 100.0;
  setup.lmax_cap = 0.0;

  std::vector<std::jthread> threads;
  for (int rank = 1; rank <= 2; ++rank) {
    threads.emplace_back([&, rank] {
      auto ctx = pm::initpass(world, rank);
      pp::run_worker(ctx, sched, kRun, [](const pb::EvolveRequest& req) {
        return fake_result(req);
      });
    });
  }
  auto ctx = pm::initpass(world, 0);
  int sunk = 0;
  EXPECT_THROW(pp::run_master(ctx, sched, setup, kRun,
                              [&sunk](std::size_t,
                                      const pb::ModeResult&) {
                                if (++sunk == 2) {
                                  throw plinger::Error("disk full");
                                }
                              }),
               plinger::Error);
  threads.clear();  // the joins must return, not hang
}

TEST(FaultTolerance, AnyEvolveExceptionIsAReportNotADeadWorker) {
  // std::bad_alloc is not a plinger::Error, but it is still one failed
  // evolve step: reported on tag 7, retried, then recorded failed.  The
  // worker keeps serving, so the master never waits on a dead thread.
  const auto sched = sched_n(10);
  const double k_bad = sched.k_of_ik(3);
  const pp::EvolveFn alloc_fails =
      [k_bad](const pb::EvolveRequest& req) -> pb::ModeResult {
    if (req.k == k_bad) throw std::bad_alloc();
    return fake_result(req);
  };
  const auto [n, stats] = run_protocol(sched, {alloc_fails, alloc_fails}, 2);
  EXPECT_EQ(n, 9u);
  EXPECT_EQ(stats.failed_ik, std::vector<std::size_t>{3});
  EXPECT_EQ(stats.n_requeued, 2u);
  EXPECT_TRUE(stats.lost_workers.empty());
}

namespace {

/// One master and one fake worker under the given run identities.
struct AdmissionRun {
  std::size_t n_sunk = 0;
  pp::MasterStats stats;
  std::string worker_error;  ///< what the worker threw; empty if none
};

AdmissionRun run_admission(const pp::KSchedule& sched,
                           plinger::store::RunIdentity master,
                           plinger::store::RunIdentity worker) {
  pm::InProcWorld world(2);
  AdmissionRun r;
  std::jthread thread([&] {
    auto ctx = pm::initpass(world, 1);
    try {
      pp::run_worker(ctx, sched, worker, fake_result);
    } catch (const plinger::Error& e) {
      r.worker_error = e.what();
    }
  });
  auto ctx = pm::initpass(world, 0);
  r.stats = pp::run_master(
      ctx, sched, pp::RunSetup{}, master,
      [&r](std::size_t, const pb::ModeResult&) { ++r.n_sunk; });
  thread.join();
  return r;
}

}  // namespace

TEST(Admission, IdentitiesCrossTheBroadcastExactly) {
  // The broadcast carries the identity as two exact 32-bit halves: the
  // top bit and values past 2^53 (where one double would round) arrive
  // whole, and a one-bit difference anywhere is a refusal that settles
  // the worker at once.
  const auto sched = sched_n(4);
  for (const std::uint64_t v :
       {UINT64_C(0xFFFFFFFFFFFFFFFF), UINT64_C(0x8000000000000001),
        (UINT64_C(1) << 53) + 1}) {
    const plinger::store::RunIdentity id{v};
    SCOPED_TRACE(id.hex());
    const AdmissionRun same = run_admission(sched, id, id);
    EXPECT_EQ(same.n_sunk, 4u);
    EXPECT_EQ(same.worker_error, "");
    EXPECT_TRUE(same.stats.lost_workers.empty());

    for (const std::uint64_t flip : {UINT64_C(1), UINT64_C(1) << 63}) {
      const plinger::store::RunIdentity other{v ^ flip};
      const AdmissionRun refused = run_admission(sched, id, other);
      EXPECT_EQ(refused.n_sunk, 0u);
      EXPECT_TRUE(refused.stats.all_workers_lost);
      EXPECT_NE(refused.worker_error.find(id.hex()), std::string::npos)
          << refused.worker_error;
      EXPECT_NE(refused.worker_error.find(other.hex()), std::string::npos)
          << refused.worker_error;
    }
  }
}

TEST(HeterogeneousCluster, FasterNodesDoMoreWork) {
  const auto sched = sched_n(64);
  auto cost = [](double) { return 10.0; };
  pp::MessageSizer sizer;
  sizer.tau0 = 11839.0;
  // Worker 1 at 4x speed.
  const std::vector<double> speeds = {4.0, 1.0, 1.0, 1.0};
  const auto r = pp::simulate_virtual_cluster(sched, 4, cost,
                                              pp::LinkModel{}, sizer,
                                              speeds);
  // Busy time is recorded as actual (speed-scaled) seconds; the fast
  // worker should complete ~4x the items, i.e. comparable busy seconds.
  EXPECT_GT(r.worker_busy_seconds[1], 0.5 * r.worker_busy_seconds[2]);
  // Wallclock beats the homogeneous 4-node run (extra speed helps).
  const auto homo = pp::simulate_virtual_cluster(sched, 4, cost,
                                                 pp::LinkModel{}, sizer);
  EXPECT_LT(r.wallclock_seconds, homo.wallclock_seconds);
}

TEST(HeterogeneousCluster, C90T3DEnvironmentModel) {
  // The paper's PSC setup: T3D nodes ~15/40 the Power2 speed.  Scaling
  // still near-ideal: the master/worker pattern does not care about
  // node identity.
  const auto sched = sched_n(256);
  auto cost = [](double k) { return 60.0 + 600.0 * k / 0.1; };
  pp::MessageSizer sizer;
  sizer.tau0 = 11839.0;
  const std::vector<double> t3d(64, 15.0 / 40.0);
  const auto r = pp::simulate_virtual_cluster(sched, 64, cost,
                                              pp::LinkModel{}, sizer,
                                              t3d);
  EXPECT_GT(r.parallel_efficiency(), 0.9);
  // Total CPU is (40/15)x the homogeneous-Power2 value.
  const auto power2 = pp::simulate_virtual_cluster(sched, 64, cost,
                                                   pp::LinkModel{}, sizer);
  EXPECT_NEAR(r.total_worker_cpu_seconds /
                  power2.total_worker_cpu_seconds,
              40.0 / 15.0, 1e-6);
}

TEST(HeterogeneousCluster, RejectsBadSpeeds) {
  const auto sched = sched_n(4);
  auto cost = [](double) { return 1.0; };
  pp::MessageSizer sizer;
  sizer.tau0 = 11839.0;
  EXPECT_THROW(pp::simulate_virtual_cluster(sched, 4, cost,
                                            pp::LinkModel{}, sizer,
                                            {1.0, 2.0}),
               plinger::InvalidArgument);
  EXPECT_THROW(pp::simulate_virtual_cluster(sched, 2, cost,
                                            pp::LinkModel{}, sizer,
                                            {1.0, -2.0}),
               plinger::InvalidArgument);
}
