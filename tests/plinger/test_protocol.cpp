#include "plinger/driver.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "math/spline.hpp"

namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;

namespace {
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

pp::KSchedule small_schedule(std::size_t n,
                             pp::IssueOrder order =
                                 pp::IssueOrder::largest_first) {
  return pp::KSchedule(plinger::math::linspace(0.002, 0.02, n), order);
}

pp::RunSetup small_setup() {
  pp::RunSetup setup;
  setup.tau_end = 600.0;  // stop well before today: keeps the test fast
  setup.lmax_cap = 24;
  return setup;
}
}  // namespace

TEST(Protocol, SerialRunCompletesAllWavenumbers) {
  const auto& w = world();
  const auto sched = small_schedule(8);
  const auto out = pp::run_linger_serial(w.bg, w.rec, w.cfg, sched,
                                         small_setup());
  EXPECT_EQ(out.results.size(), 8u);
  for (std::size_t ik = 1; ik <= 8; ++ik) {
    ASSERT_TRUE(out.results.count(ik)) << ik;
    EXPECT_DOUBLE_EQ(out.results.at(ik).k, sched.k_of_ik(ik));
  }
  EXPECT_GT(out.total_worker_cpu_seconds, 0.0);
  EXPECT_GT(out.total_flops, 0u);
}

// "PLINGER = LINGER over message passing": the bitwise serial/parallel
// equality check lives in test_driver_equivalence.cpp, which sweeps all
// three drivers x all three issue orders x worker counts {1, 2, 4}.

TEST(Protocol, MoreWorkersThanWork) {
  const auto& w = world();
  const auto sched = small_schedule(2);
  const auto out = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched,
                                           small_setup(), 5);
  EXPECT_EQ(out.results.size(), 2u);
}

TEST(Protocol, SingleWorker) {
  const auto& w = world();
  const auto sched = small_schedule(4);
  const auto out = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched,
                                           small_setup(), 1);
  EXPECT_EQ(out.results.size(), 4u);
}

TEST(Protocol, WorksUnderMplOrderingRules) {
  // The paper: "On the SP2, MPL requires that messages be received in the
  // order in which they arrive, but this does not create difficulties."
  const auto& w = world();
  const auto sched = small_schedule(6);
  EXPECT_NO_THROW({
    const auto out = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched,
                                             small_setup(), 3,
                                             plinger::mp::Library::mplsim);
    EXPECT_EQ(out.results.size(), 6u);
  });
}

TEST(Protocol, TransportAccountingMatchesProtocol) {
  const auto& w = world();
  const std::size_t nk = 5;
  const int n_workers = 2;
  const auto sched = small_schedule(nk);
  const auto out = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched,
                                           small_setup(), n_workers);
  const auto& t = out.transport;
  // tag 1: one per worker; tag 2: one per worker; tag 4/5: one per k;
  // tag 3: one per k; tag 6: one per worker.
  EXPECT_EQ(t.per_tag[1], static_cast<std::uint64_t>(n_workers));
  EXPECT_EQ(t.per_tag[2], static_cast<std::uint64_t>(n_workers));
  EXPECT_EQ(t.per_tag[3], nk);
  EXPECT_EQ(t.per_tag[4], nk);
  EXPECT_EQ(t.per_tag[5], nk);
  EXPECT_EQ(t.per_tag[6], static_cast<std::uint64_t>(n_workers));
  EXPECT_GT(t.max_message_bytes, 21u * 8u);
}

TEST(Protocol, IssueOrderDoesNotChangeResults) {
  const auto& w = world();
  const auto sched_lf = small_schedule(5, pp::IssueOrder::largest_first);
  const auto sched_nat = small_schedule(5, pp::IssueOrder::natural);
  const auto a = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched_lf,
                                         small_setup(), 2);
  const auto b = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched_nat,
                                         small_setup(), 2);
  for (std::size_t ik = 1; ik <= 5; ++ik) {
    EXPECT_EQ(a.results.at(ik).final_state.delta_c,
              b.results.at(ik).final_state.delta_c);
  }
}

TEST(Protocol, EfficiencyFieldsPopulated) {
  const auto& w = world();
  const auto sched = small_schedule(4);
  const auto out = pp::run_plinger_threads(w.bg, w.rec, w.cfg, sched,
                                           small_setup(), 2);
  EXPECT_GT(out.wallclock_seconds, 0.0);
  EXPECT_GT(out.parallel_efficiency(), 0.0);
  EXPECT_GT(out.flops_per_second(), 0.0);
  EXPECT_EQ(out.n_workers, 2);
}
