#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"

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

pp::KSchedule sched() {
  return pp::KSchedule(plinger::math::linspace(0.002, 0.02, 7),
                       pp::IssueOrder::largest_first);
}

pp::RunSetup short_setup() {
  pp::RunSetup setup;
  setup.tau_end = 500.0;
  setup.lmax_cap = 24;
  return setup;
}
}  // namespace

TEST(Autotask, MatchesSerialBitwise) {
  // The paper's point: the Autotasked serial code is the same code.
  const auto& w = world();
  const auto s = sched();
  const auto setup = short_setup();
  const auto serial = pp::run_linger_serial(w.bg, w.rec, w.cfg, s, setup);
  const auto auto2 =
      pp::run_linger_autotask(w.bg, w.rec, w.cfg, s, setup, 2);
  ASSERT_EQ(auto2.results.size(), serial.results.size());
  for (const auto& [ik, rs] : serial.results) {
    const auto& ra = auto2.results.at(ik);
    EXPECT_EQ(ra.final_state.delta_c, rs.final_state.delta_c) << ik;
    EXPECT_EQ(ra.final_state.eta, rs.final_state.eta) << ik;
    ASSERT_EQ(ra.f_gamma.size(), rs.f_gamma.size());
    for (std::size_t l = 0; l < rs.f_gamma.size(); ++l) {
      EXPECT_EQ(ra.f_gamma[l], rs.f_gamma[l]);
    }
  }
}

TEST(Autotask, MatchesMessagePassingDriver) {
  const auto& w = world();
  const auto s = sched();
  const auto setup = short_setup();
  const auto mp = pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, 2);
  const auto at =
      pp::run_linger_autotask(w.bg, w.rec, w.cfg, s, setup, 3);
  for (const auto& [ik, r] : mp.results) {
    EXPECT_EQ(at.results.at(ik).final_state.delta_c,
              r.final_state.delta_c);
  }
  // No transport in the autotask driver.
  EXPECT_EQ(at.transport.n_messages, 0u);
  EXPECT_GT(mp.transport.n_messages, 0u);
}

TEST(Autotask, ThreadCountSweep) {
  const auto& w = world();
  const auto s = sched();
  const auto setup = short_setup();
  for (int n : {1, 4, 8}) {
    const auto r = pp::run_linger_autotask(w.bg, w.rec, w.cfg, s, setup, n);
    EXPECT_EQ(r.results.size(), s.size()) << n;
    EXPECT_EQ(r.n_workers, n);
  }
}

TEST(Autotask, PropagatesWorkerExceptions) {
  const auto& w = world();
  const auto s = sched();
  pp::RunSetup setup = short_setup();
  setup.tau_end = 1e9;  // beyond today: every evolve must throw
  EXPECT_THROW(pp::run_linger_autotask(w.bg, w.rec, w.cfg, s, setup, 2),
               plinger::Error);
}
