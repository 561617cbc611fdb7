#include "boltzmann/mode_evolution.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;

namespace {
struct World {
  pc::Background bg{pc::CosmoParams::standard_cdm()};
  pc::Recombination rec{bg};
  pb::PerturbationConfig cfg;
  World() {
    cfg.lmax_photon = 32;
    cfg.lmax_polarization = 16;
    cfg.lmax_neutrino = 16;
  }
};
const World& world() {
  static World w;
  return w;
}
}  // namespace

TEST(ModeEvolver, AutoLmaxMatchesHelper) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest req;
  req.k = 0.01;
  const auto r = ev.evolve(req);
  EXPECT_EQ(r.lmax,
            pb::lmax_photon_for_k(0.01, w.bg.conformal_age()));
  EXPECT_EQ(r.f_gamma.size(), r.lmax + 1);
}

TEST(ModeEvolver, ExplicitLmaxRespected) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest req;
  req.k = 0.01;
  req.lmax_photon = 48;
  const auto r = ev.evolve(req);
  EXPECT_EQ(r.lmax, 48u);
}

TEST(ModeEvolver, SamplesRecordedAtRequestedTimes) {
  const auto& w = world();
  for (const auto kind :
       {pb::IntegratorKind::dverk, pb::IntegratorKind::dop853}) {
    SCOPED_TRACE(kind == pb::IntegratorKind::dverk ? "dverk" : "dop853");
    pb::PerturbationConfig cfg = w.cfg;
    cfg.integrator = kind;
    pb::ModeEvolver ev(w.bg, w.rec, cfg);
    pb::EvolveRequest req;
    req.k = 0.01;
    const auto plain = ev.evolve(req);
    ASSERT_GT(plain.tau_switch, 100.0);
    ASSERT_LT(plain.tau_switch, 500.0);

    // Two boundary times, unsorted: exactly tau_end, and a hair below
    // tau_switch.  Each is answered once, at the boundary's own tau,
    // from the boundary state after the tight-coupling handoff.
    req.sample_taus = {plain.tau_end, 500.0, plain.tau_switch - 5e-13,
                       100.0, 5000.0};
    const auto r = ev.evolve(req);
    ASSERT_EQ(r.samples.size(), 5u);
    EXPECT_DOUBLE_EQ(r.samples[0].tau, 100.0);
    EXPECT_EQ(r.samples[1].tau, r.tau_switch);
    EXPECT_DOUBLE_EQ(r.samples[2].tau, 500.0);
    EXPECT_DOUBLE_EQ(r.samples[3].tau, 5000.0);
    EXPECT_EQ(r.samples[4].tau, r.tau_end);
    // a grows between samples.
    for (std::size_t i = 1; i < r.samples.size(); ++i) {
      EXPECT_LT(r.samples[i - 1].a, r.samples[i].a) << "i=" << i;
    }

    // The last leg ends exactly at tau_end, so the tau_end sample is the
    // final state.
    EXPECT_EQ(r.samples[4].delta_c, r.final_state.delta_c);
    EXPECT_EQ(r.samples[4].phi, r.final_state.phi);

    // The near-switch time is answered as the exact switch time is:
    // same trajectory, same post-handoff sample.
    req.sample_taus[2] = plain.tau_switch;
    const auto exact = ev.evolve(req);
    ASSERT_EQ(exact.samples.size(), 5u);
    EXPECT_EQ(r.samples[1].delta_b, exact.samples[1].delta_b);
    EXPECT_EQ(r.samples[1].pi_pol, exact.samples[1].pi_pol);
    EXPECT_EQ(r.final_state.delta_g, exact.final_state.delta_g);
  }
}

TEST(ModeEvolver, OutOfRangeSamplesIgnored) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest req;
  req.k = 0.01;
  req.sample_taus = {1e-6, 1e9};
  const auto r = ev.evolve(req);
  EXPECT_TRUE(r.samples.empty());
}

TEST(ModeEvolver, DeterministicRepeat) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest req;
  req.k = 0.03;
  const auto r1 = ev.evolve(req);
  const auto r2 = ev.evolve(req);
  ASSERT_EQ(r1.f_gamma.size(), r2.f_gamma.size());
  for (std::size_t l = 0; l < r1.f_gamma.size(); ++l) {
    EXPECT_EQ(r1.f_gamma[l], r2.f_gamma[l]) << "l=" << l;
  }
  EXPECT_EQ(r1.final_state.delta_c, r2.final_state.delta_c);
  EXPECT_EQ(r1.stats.n_accepted, r2.stats.n_accepted);
}

TEST(ModeEvolver, StatsAndAccountingPopulated) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest req;
  req.k = 0.02;
  const auto r = ev.evolve(req);
  EXPECT_GT(r.stats.n_accepted, 50);
  EXPECT_EQ(r.stats.n_rhs,
            8 * (r.stats.n_accepted + r.stats.n_rejected));
  EXPECT_GT(r.flops, 1000u);
  EXPECT_GE(r.cpu_seconds, 0.0);
  EXPECT_GT(r.tau_switch, r.tau_init);
  EXPECT_LT(r.tau_switch, r.tau_end);
}

TEST(ModeEvolver, SwitchTimeDecreasesWithK) {
  // Larger k leaves tight coupling earlier (k tau_c threshold).
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest lo, hi;
  lo.k = 0.01;
  hi.k = 0.2;
  const auto r_lo = ev.evolve(lo, 400.0);
  const auto r_hi = ev.evolve(hi, 400.0);
  EXPECT_GT(r_lo.tau_switch, r_hi.tau_switch);
}

TEST(ModeEvolver, RejectsBadRequests) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest req;
  req.k = -1.0;
  EXPECT_THROW(ev.evolve(req), plinger::InvalidArgument);
  req.k = 0.01;
  EXPECT_THROW(ev.evolve(req, 1e9), plinger::InvalidArgument);
}

TEST(ModeEvolver, PartialEvolutionStopsEarly) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest req;
  req.k = 0.01;
  const auto r = ev.evolve(req, 500.0);
  EXPECT_DOUBLE_EQ(r.tau_end, 500.0);
  EXPECT_NEAR(r.final_state.a, w.bg.a_of_tau(500.0),
              1e-4 * w.bg.a_of_tau(500.0));
}

/// Convergence sweep: tightening rtol converges delta_c at tau0.
class RtolSweep : public ::testing::TestWithParam<double> {};

TEST_P(RtolSweep, DeltaCConvergesWithTolerance) {
  const auto& w = world();
  pb::PerturbationConfig tight = w.cfg;
  tight.rtol = 1e-9;
  pb::EvolveRequest req;
  req.k = 0.02;
  const auto ref = pb::ModeEvolver(w.bg, w.rec, tight).evolve(req);

  pb::PerturbationConfig cfg = w.cfg;
  cfg.rtol = GetParam();
  const auto r = pb::ModeEvolver(w.bg, w.rec, cfg).evolve(req);
  EXPECT_NEAR(r.final_state.delta_c, ref.final_state.delta_c,
              200.0 * GetParam() * std::abs(ref.final_state.delta_c));
}

INSTANTIATE_TEST_SUITE_P(Tolerances, RtolSweep,
                         ::testing::Values(1e-4, 1e-5, 1e-6, 1e-7));
