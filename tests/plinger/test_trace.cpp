// Invariants of the run-trace observability layer:
//
//  * per-worker spans never overlap (a worker integrates one k at a
//    time),
//  * every scheduled ik appears exactly once among completed spans,
//  * per-tag message counts in the trace reconcile with the transport's
//    own TransportStats counters,
//  * fault-injected requeues (the tag-7 path) leave duplicate-attempt
//    spans with exactly one completed span per ik,
//  * report/exporter sanity on both real and virtual traces.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"
#include "plinger/trace.hpp"
#include "plinger/virtual_cluster.hpp"

namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;
namespace pm = plinger::mp;

namespace {

struct World {
  plinger::cosmo::Background bg{
      plinger::cosmo::CosmoParams::standard_cdm()};
  plinger::cosmo::Recombination rec{bg};
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

pp::KSchedule small_schedule(std::size_t n) {
  return pp::KSchedule(plinger::math::linspace(0.002, 0.02, n),
                       pp::IssueOrder::largest_first);
}

pp::RunSetup traced_setup() {
  pp::RunSetup setup;
  setup.tau_end = 600.0;
  setup.lmax_cap = 24;
  setup.trace.enabled = true;
  return setup;
}

void expect_spans_non_overlapping(const pp::Trace& trace) {
  std::map<int, std::vector<const pp::ModeSpan*>> by_worker;
  for (const auto& s : trace.spans) by_worker[s.worker].push_back(&s);
  for (auto& [w, spans] : by_worker) {
    std::sort(spans.begin(), spans.end(),
              [](const pp::ModeSpan* a, const pp::ModeSpan* b) {
                return a->t_start < b->t_start;
              });
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_LE(spans[i]->t_start, spans[i]->t_finish)
          << "worker " << w << " span " << i;
      if (i > 0) {
        EXPECT_GE(spans[i]->t_start, spans[i - 1]->t_finish)
            << "worker " << w << " spans " << i - 1 << "/" << i
            << " overlap";
      }
    }
  }
}

void expect_each_ik_completed_once(const pp::Trace& trace,
                                   std::size_t n_modes) {
  std::map<std::size_t, int> completed;
  for (const auto& s : trace.spans) {
    if (s.completed) ++completed[s.ik];
  }
  EXPECT_EQ(completed.size(), n_modes);
  for (std::size_t ik = 1; ik <= n_modes; ++ik) {
    EXPECT_EQ(completed[ik], 1) << "ik " << ik;
  }
}

/// The identity master and workers share in the protocol-level runs.
constexpr plinger::store::RunIdentity kRun{0xABCDu};

/// run_protocol harness from test_faults, with a trace recorder wired
/// through the master and every worker.
std::pair<pp::MasterStats, pp::Trace> run_traced_protocol(
    const pp::KSchedule& sched, const std::vector<pp::EvolveFn>& workers,
    int max_retries, pm::TransportStats* transport_out = nullptr) {
  pm::InProcWorld world_mp(static_cast<int>(workers.size()) + 1);
  pp::TraceRecorder recorder;
  world_mp.set_send_observer(
      [&recorder](int from, int to, int tag, std::size_t bytes) {
        recorder.record_message(tag, from, to, bytes);
      });
  pp::RunSetup setup;
  setup.tau_end = 100.0;
  setup.lmax_cap = 0.0;
  setup.fault.max_retries = max_retries;

  std::vector<std::jthread> threads;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    threads.emplace_back([&, i] {
      auto ctx = pm::initpass(world_mp, static_cast<int>(i) + 1);
      pp::run_worker(ctx, sched, kRun, workers[i], &recorder);
    });
  }
  auto ctx = pm::initpass(world_mp, 0);
  const auto stats = pp::run_master(
      ctx, sched, setup, kRun, [](std::size_t, const pb::ModeResult&) {},
      &recorder);
  threads.clear();
  if (transport_out) *transport_out = world_mp.stats();
  return {stats, recorder.finish(static_cast<int>(workers.size()))};
}

pb::ModeResult fake_result(const pb::EvolveRequest& req) {
  pb::ModeResult r;
  r.k = req.k;
  r.lmax = 8;
  r.f_gamma.assign(9, req.k);
  r.g_gamma.assign(5, 0.0);
  r.flops = 1000;
  return r;
}

}  // namespace

TEST(TraceInvariants, DisabledByDefaultAndNullTrace) {
  const auto& w = world();
  const auto sched = small_schedule(3);
  auto setup = traced_setup();
  setup.trace.enabled = false;
  const auto out =
      pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched, setup, 2);
  EXPECT_EQ(out.trace, nullptr);
}

TEST(TraceInvariants, RealRunSpansAndMessagesReconcile) {
  const auto& w = world();
  const std::size_t n_modes = 6;
  const int n_workers = 3;
  const auto sched = small_schedule(n_modes);
  const auto out = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched,
                                           traced_setup(), n_workers);
  ASSERT_NE(out.trace, nullptr);
  const pp::Trace& trace = *out.trace;

  expect_spans_non_overlapping(trace);
  expect_each_ik_completed_once(trace, n_modes);
  EXPECT_EQ(trace.assigns.size(), n_modes);
  EXPECT_EQ(trace.n_workers, n_workers);

  // Per-tag reconciliation against the transport's own counters.
  std::array<std::uint64_t, 7> per_tag{};
  std::uint64_t bytes = 0;
  for (const auto& m : trace.messages) {
    ASSERT_GE(m.tag, 1);
    ASSERT_LE(m.tag, 6);
    ++per_tag[static_cast<std::size_t>(m.tag)];
    bytes += m.bytes;
  }
  for (std::size_t tag = 1; tag <= 6; ++tag) {
    EXPECT_EQ(per_tag[tag], out.transport.per_tag[tag]) << "tag " << tag;
  }
  EXPECT_EQ(trace.messages.size(), out.transport.n_messages);
  EXPECT_EQ(bytes, out.transport.n_bytes);

  // Span CPU/flops totals reconcile with the run-level totals.
  double cpu = 0.0;
  std::uint64_t flops = 0;
  for (const auto& s : trace.spans) {
    cpu += s.cpu_seconds;
    flops += s.flops;
  }
  // Summation order differs between the trace and the master's sink, so
  // allow for non-associative float addition.
  EXPECT_NEAR(cpu, out.total_worker_cpu_seconds,
              1e-12 + 1e-12 * out.total_worker_cpu_seconds);
  EXPECT_EQ(flops, out.total_flops);
}

TEST(TraceInvariants, SerialAndAutotaskTracesCoverSchedule) {
  const auto& w = world();
  const std::size_t n_modes = 5;
  const auto sched = small_schedule(n_modes);
  const auto setup = traced_setup();

  const auto serial =
      pp::run_linger_serial(w.bg, w.rec, w.cfg, sched, setup);
  ASSERT_NE(serial.trace, nullptr);
  expect_each_ik_completed_once(*serial.trace, n_modes);
  expect_spans_non_overlapping(*serial.trace);
  EXPECT_TRUE(serial.trace->messages.empty());

  const auto autotask =
      pp::run_linger_autotask(w.bg, w.rec, w.cfg, sched, setup, 2);
  ASSERT_NE(autotask.trace, nullptr);
  expect_each_ik_completed_once(*autotask.trace, n_modes);
  expect_spans_non_overlapping(*autotask.trace);
}

TEST(TraceInvariants, RequeuedFaultsLeaveDuplicateAttemptSpans) {
  // One worker fails its first 3 integrations: the trace must show the
  // failed attempts (completed == false), attempt numbers above 1 for
  // the requeued modes, and exactly one completed span per ik.
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
  const std::size_t n_modes = 12;
  const auto sched = pp::KSchedule(
      plinger::math::linspace(0.01, 0.1, n_modes),
      pp::IssueOrder::largest_first);
  const auto [stats, trace] =
      run_traced_protocol(sched, {flaky, good}, /*max_retries=*/5);

  EXPECT_TRUE(stats.failed_ik.empty());
  EXPECT_GE(stats.n_requeued, 1u);
  expect_each_ik_completed_once(trace, n_modes);
  expect_spans_non_overlapping(trace);

  std::size_t n_failed_spans = 0;
  int max_attempt = 0;
  for (const auto& s : trace.spans) {
    if (!s.completed) ++n_failed_spans;
    max_attempt = std::max(max_attempt, s.attempt);
  }
  EXPECT_EQ(n_failed_spans, 3u);
  EXPECT_GE(max_attempt, 2);
  // A requeue produces one assignment per attempt.
  EXPECT_EQ(trace.assigns.size(), trace.spans.size());
  EXPECT_EQ(trace.spans.size(), n_modes + n_failed_spans);
}

TEST(TraceInvariants, ExhaustedRetriesHaveNoCompletedSpan) {
  pp::EvolveFn poisoned = [](const pb::EvolveRequest& req) -> pb::ModeResult {
    if (std::abs(req.k - 0.1) < 1e-12) {
      throw plinger::NumericalFailure("always fails at k=0.1");
    }
    return fake_result(req);
  };
  const auto sched = pp::KSchedule(plinger::math::linspace(0.01, 0.1, 10),
                                   pp::IssueOrder::largest_first);
  const auto [stats, trace] =
      run_traced_protocol(sched, {poisoned, poisoned}, /*max_retries=*/2);
  ASSERT_EQ(stats.failed_ik.size(), 1u);
  const std::size_t bad_ik = stats.failed_ik[0];
  std::size_t bad_attempts = 0;
  for (const auto& s : trace.spans) {
    if (s.ik == bad_ik) {
      EXPECT_FALSE(s.completed);
      ++bad_attempts;
    }
  }
  EXPECT_EQ(bad_attempts, 3u);  // first try + 2 retries, all failed
}

TEST(TraceReport, ReportQuantitiesAreConsistent) {
  const auto& w = world();
  const std::size_t n_modes = 6;
  const int n_workers = 2;
  const auto sched = small_schedule(n_modes);
  const auto out = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched,
                                           traced_setup(), n_workers);
  ASSERT_NE(out.trace, nullptr);
  const auto rep = pp::make_run_report(*out.trace);

  EXPECT_EQ(rep.n_workers, n_workers);
  EXPECT_EQ(rep.n_modes_completed, n_modes);
  EXPECT_EQ(rep.workers.size(), static_cast<std::size_t>(n_workers));
  EXPECT_GT(rep.wallclock_seconds, 0.0);
  double busy = 0.0;
  for (const auto& wt : rep.workers) {
    EXPECT_GE(wt.busy_seconds, 0.0);
    EXPECT_LE(wt.busy_seconds,
              rep.wallclock_seconds * (1.0 + 1e-9));
    EXPECT_NEAR(wt.idle_seconds,
                rep.wallclock_seconds - wt.busy_seconds, 1e-9);
    EXPECT_GE(wt.idle_tail_seconds, 0.0);
    EXPECT_LE(wt.efficiency, 1.0 + 1e-9);
    busy += wt.busy_seconds;
  }
  EXPECT_NEAR(busy, rep.total_busy_seconds, 1e-9);
  EXPECT_EQ(rep.total_flops, out.total_flops);
  EXPECT_NEAR(rep.total_cpu_seconds, out.total_worker_cpu_seconds,
              1e-12 + 1e-12 * out.total_worker_cpu_seconds);
  EXPECT_GT(rep.n_messages, 0u);
  EXPECT_GT(rep.message_overhead_ratio, 0.0);
}

TEST(TraceReport, VirtualClusterIdleTailLargestFirstBeatsNatural) {
  // The §5.2 claim, as a testable report quantity on the deterministic
  // virtual cluster: largest-first leaves a shorter end-of-run tail.
  const auto kgrid = plinger::math::linspace(0.002, 0.0528, 48);
  auto cost = [](double k) { return 120.0 + 1800.0 * (k / 0.0528); };
  pp::MessageSizer sizer;
  sizer.tau0 = 11839.0;

  auto tail_for = [&](pp::IssueOrder order) {
    const pp::KSchedule schedule(kgrid, order);
    pp::TraceRecorder recorder;
    const auto r = pp::simulate_virtual_cluster(
        schedule, 8, cost, pp::LinkModel{}, sizer, {}, &recorder);
    const auto trace = recorder.finish(8, r.wallclock_seconds);
    expect_spans_non_overlapping(trace);
    expect_each_ik_completed_once(trace, kgrid.size());
    return pp::make_run_report(trace).idle_tail_seconds;
  };
  EXPECT_LE(tail_for(pp::IssueOrder::largest_first),
            tail_for(pp::IssueOrder::natural));
}

TEST(TraceExport, AsciiAndChromeOutputsWellFormed) {
  const auto& w = world();
  const auto sched = small_schedule(4);
  const auto out = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched,
                                           traced_setup(), 2);
  ASSERT_NE(out.trace, nullptr);

  std::ostringstream ascii;
  pp::write_ascii_report(ascii, pp::make_run_report(*out.trace));
  const std::string report = ascii.str();
  EXPECT_NE(report.find("worker"), std::string::npos);
  EXPECT_NE(report.find("parallel efficiency"), std::string::npos);
  EXPECT_NE(report.find("idle tail"), std::string::npos);

  std::ostringstream json;
  pp::write_chrome_trace(json, *out.trace);
  const std::string chrome = json.str();
  EXPECT_EQ(chrome.front(), '{');
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"thread_name\""), std::string::npos);
  // Balanced braces => loadable by chrome://tracing's JSON parser.
  long depth = 0;
  for (char c : chrome) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}
