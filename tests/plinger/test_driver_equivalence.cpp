// Driver-equivalence sweep: "PLINGER = LINGER over message passing".
//
// One parameterized test asserts bitwise-identical ModeResults across
// the serial, autotask, and message-passing drivers for every IssueOrder
// policy and worker counts {1, 2, 4}.  The reference is a single serial
// natural-order run; since results are keyed by the ascending work index
// ik, neither the issue order nor the transport may change a single bit.
// One more configuration evolves to today (tau_end = 0) under a binding
// lmax_cap, where every driver must resolve the conformal age and size
// the photon tower from the cap the same way.  A line-of-sight run must
// leave every worker as projected towers bitwise equal to the
// master-side projection recipe they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "boltzmann/los.hpp"
#include "boltzmann/source_table.hpp"
#include "cosmo/thermo_cache.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"

namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;

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

pp::KSchedule schedule_with(pp::IssueOrder order) {
  return pp::KSchedule(plinger::math::linspace(0.002, 0.02, kNModes),
                       order);
}

pp::RunSetup setup_for(const pp::KSchedule& s, double tau_end) {
  pp::RunSetup setup;
  setup.tau_end = tau_end;
  setup.lmax_cap = 24;
  setup.n_k = static_cast<double>(s.size());
  return setup;
}

/// The serial natural-order run a configuration must match.
std::map<std::size_t, pb::ModeResult> serial_reference(double tau_end) {
  const auto& w = world();
  const auto s = schedule_with(pp::IssueOrder::natural);
  return pp::run_linger_serial(w.bg, w.rec, w.cfg, s, setup_for(s, tau_end))
      .results;
}

/// The sweep's reference, computed once.  tau_end = 600 stops well
/// before today, which keeps the sweep fast.
const std::map<std::size_t, pb::ModeResult>& reference() {
  static const auto ref = serial_reference(600.0);
  return ref;
}

/// Bitwise equality of everything except wallclock-dependent fields
/// (cpu_seconds is a timing, so it is excluded by construction).  The
/// message-passing driver reassembles results from the paper's tag-4/5
/// wire records, which do not carry n_rejected, alpha, or pi_pol; for
/// that driver only the wire-carried fields are compared (still bitwise).
void expect_bitwise_equal(const pb::ModeResult& a, const pb::ModeResult& b,
                          std::size_t ik, bool wire_fields_only) {
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
  if (!wire_fields_only) {
    EXPECT_EQ(a.stats.n_rejected, b.stats.n_rejected) << ik;
    EXPECT_EQ(fa.alpha, fb.alpha) << ik;
    EXPECT_EQ(fa.pi_pol, fb.pi_pol) << ik;
  }

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
    const std::map<std::size_t, pb::ModeResult>& results,
    bool wire_fields_only,
    const std::map<std::size_t, pb::ModeResult>& ref) {
  ASSERT_EQ(results.size(), ref.size());
  for (const auto& [ik, r_ref] : ref) {
    ASSERT_TRUE(results.count(ik)) << ik;
    expect_bitwise_equal(results.at(ik), r_ref, ik, wire_fields_only);
  }
}

/// Serial, autotask and message-passing runs under `order` and `workers`
/// against the serial natural-order reference for the same tau_end.
void expect_all_drivers_match(
    pp::IssueOrder order, int workers, double tau_end,
    const std::map<std::size_t, pb::ModeResult>& ref) {
  const auto& w = world();
  const auto s = schedule_with(order);
  const auto setup = setup_for(s, tau_end);

  const auto serial = pp::run_linger_serial(w.bg, w.rec, w.cfg, s, setup);
  expect_matches_reference(serial.results, false, ref);

  const auto autotask =
      pp::run_linger_autotask(w.bg, w.rec, w.cfg, s, setup, workers);
  expect_matches_reference(autotask.results, false, ref);

  const auto plinger =
      pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, workers);
  expect_matches_reference(plinger.results, /*wire_fields_only=*/true, ref);
}

struct SweepCase {
  pp::IssueOrder order;
  int workers;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const char* order = "";
  switch (info.param.order) {
    case pp::IssueOrder::largest_first: order = "LargestFirst"; break;
    case pp::IssueOrder::natural: order = "Natural"; break;
    case pp::IssueOrder::random_shuffle: order = "Shuffled"; break;
  }
  return std::string(order) + "Workers" +
         std::to_string(info.param.workers);
}

class DriverEquivalence : public ::testing::TestWithParam<SweepCase> {};

}  // namespace

TEST_P(DriverEquivalence, AllDriversBitwiseIdentical) {
  const auto [order, workers] = GetParam();
  expect_all_drivers_match(order, workers, /*tau_end=*/600.0, reference());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DriverEquivalence,
    ::testing::Values(
        SweepCase{pp::IssueOrder::largest_first, 1},
        SweepCase{pp::IssueOrder::largest_first, 2},
        SweepCase{pp::IssueOrder::largest_first, 4},
        SweepCase{pp::IssueOrder::natural, 1},
        SweepCase{pp::IssueOrder::natural, 2},
        SweepCase{pp::IssueOrder::natural, 4},
        SweepCase{pp::IssueOrder::random_shuffle, 1},
        SweepCase{pp::IssueOrder::random_shuffle, 2},
        SweepCase{pp::IssueOrder::random_shuffle, 4}),
    case_name);

TEST(DriverEquivalenceToday, LmaxCapBindsUnderEveryDriver) {
  const auto ref = serial_reference(/*tau_end=*/0.0);
  // The cap is below the tower's 60-moment floor, so it binds at every k.
  for (const auto& [ik, r] : ref) EXPECT_EQ(r.lmax, 24u) << ik;
  expect_all_drivers_match(pp::IssueOrder::largest_first, 2,
                           /*tau_end=*/0.0, ref);
}

TEST(LosProjectionOracle, WorkersMatchTheMasterSideRecipeBitwise) {
  // The oracle is the recipe make_spectra ran on the master before the
  // drivers projected: evolve with the same shaping, build the source
  // table, and project it through a table of l_max + 1 sized from the
  // results' largest k tau_end.
  const auto& w = world();
  const auto s = schedule_with(pp::IssueOrder::largest_first);
  pp::RunSetup setup = setup_for(s, /*tau_end=*/0.0);
  const pb::LosOptions opts = pb::los_options_for_accuracy("draft");
  setup.los.enabled = true;
  setup.los.lmax_evolve = opts.lmax_evolve;
  setup.los.sample_taus = pb::los_sample_taus(w.bg, w.rec, opts);
  setup.los.l_max = 30;
  setup.thermo = std::make_shared<const pc::ThermoCache>(w.bg, w.rec);
  const pb::ModeEvolver evolver(w.bg, w.rec, w.cfg, setup.thermo);

  const auto serial = pp::run_linger_serial(w.bg, w.rec, w.cfg, s, setup);
  const auto threads =
      pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, 2);
  for (const auto* out : {&serial, &threads}) {
    ASSERT_EQ(out->results.size(), kNModes);
    double x_max = 1.0;
    for (const auto& [ik, r] : out->results) {
      x_max = std::max(x_max, r.k * r.tau_end);
    }
    const pb::BesselTable table(setup.los.l_max + 1, x_max);
    for (const auto& [ik, r] : out->results) {
      pb::EvolveRequest req;
      req.k = s.k_of_ik(ik);
      req.lmax_photon = setup.los.lmax_evolve;
      req.sample_taus = setup.los.sample_taus;
      const pb::ProjectedMode want = pb::project_source_table(
          pb::build_source_table(
              w.bg, w.rec, evolver.evolve(req, w.bg.conformal_age())),
          setup.los.l_max, table);
      EXPECT_TRUE(r.samples.empty()) << ik;
      EXPECT_EQ(r.lmax, setup.los.l_max) << ik;
      EXPECT_EQ(r.f_gamma, want.f_gamma) << ik;
      EXPECT_EQ(r.g_gamma, want.g_gamma) << ik;
    }
  }
}
