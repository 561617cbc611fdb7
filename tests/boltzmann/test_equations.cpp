#include "boltzmann/equations.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"

#include "boltzmann/mode_evolution.hpp"

namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;

namespace {
struct World {
  pc::Background bg{pc::CosmoParams::standard_cdm()};
  pc::Recombination rec{bg};
};
const World& world() {
  static World w;
  return w;
}

pb::PerturbationConfig small_cfg() {
  pb::PerturbationConfig cfg;
  cfg.lmax_photon = 32;
  cfg.lmax_polarization = 16;
  cfg.lmax_neutrino = 16;
  return cfg;
}
}  // namespace

TEST(InitialConditions, AdiabaticRelations) {
  const auto& w = world();
  pb::ModeEquations eq(w.bg, w.rec, small_cfg(), 0.01);
  const auto y = eq.initial_conditions(0.1);
  const auto& L = eq.layout();
  EXPECT_NEAR(y[pb::StateLayout::delta_c],
              0.75 * y[pb::StateLayout::delta_g], 1e-15);
  EXPECT_NEAR(y[pb::StateLayout::delta_b],
              0.75 * y[pb::StateLayout::delta_g], 1e-15);
  EXPECT_NEAR(y[L.fn(0)], y[pb::StateLayout::delta_g], 1e-15);
  EXPECT_NEAR(y[pb::StateLayout::theta_b], y[pb::StateLayout::theta_g],
              1e-15);
  // eta ~ 2C, h = C (k tau)^2.
  EXPECT_NEAR(y[pb::StateLayout::eta], 2.0, 1e-4);
  EXPECT_NEAR(y[pb::StateLayout::h], std::pow(0.01 * 0.1, 2), 1e-12);
}

TEST(InitialConditions, RejectsSubhorizonStart) {
  const auto& w = world();
  pb::ModeEquations eq(w.bg, w.rec, small_cfg(), 0.1);
  EXPECT_THROW(eq.initial_conditions(100.0), plinger::InvalidArgument);
}

TEST(InitialConditions, EinsteinConstraintConsistency) {
  // At the IC time, hdot from the energy constraint must match the
  // analytic 2 C k^2 tau (h = C (k tau)^2 with C=1).
  const auto& w = world();
  const double k = 0.005, tau = 0.2;
  pb::ModeEquations eq(w.bg, w.rec, small_cfg(), k);
  const auto y = eq.initial_conditions(tau);
  std::vector<double> dy(y.size(), 0.0);
  eq.rhs_tca(tau, y, dy);
  EXPECT_NEAR(dy[pb::StateLayout::h], 2.0 * k * k * tau,
              0.05 * std::abs(2.0 * k * k * tau));
}

TEST(Evolution, SuperhorizonEtaFrozen) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, small_cfg());
  pb::EvolveRequest req;
  req.k = 1e-5;  // stays outside the horizon until late times
  req.lmax_photon = 32;
  const auto r = ev.evolve(req, 300.0);
  EXPECT_NEAR(r.final_state.eta, 2.0, 0.01);
}

/// Direct residual check: integrate and verify the two unused Einstein
/// evolution equations hold along the way (MB95 eqs. 21c, 21d).
TEST(Evolution, EinsteinEvolutionEquationsHold) {
  const auto& w = world();
  pb::PerturbationConfig cfg = small_cfg();
  cfg.lmax_photon = 64;
  cfg.lmax_neutrino = 32;
  cfg.rtol = 1e-8;
  const double k = 0.02;
  pb::ModeEquations eq(w.bg, w.rec, cfg, k);

  // Evolve manually with the public RHS to keep hold of the state.
  plinger::math::Dverk ode;
  plinger::math::OdeOptions opts;
  opts.rtol = 1e-8;
  opts.atol = 1e-12;
  const double tau_init = 0.05;
  auto y = eq.initial_conditions(tau_init);

  double tau_prev = tau_init;
  for (double tau : {5.0, 40.0}) {
    auto rhs = [&eq](double t, std::span<const double> yy,
                     std::span<double> dd) { eq.rhs_tca(t, yy, dd); };
    ode.integrate(rhs, tau_prev, tau, y, opts);
    tau_prev = tau;
    const auto res = eq.einstein_residuals(tau, y);
    EXPECT_LT(std::abs(res.trace) / res.scale, 2e-3) << "tau=" << tau;
    EXPECT_LT(std::abs(res.shear) / res.scale, 2e-3) << "tau=" << tau;
  }
  // Switch to the full equations and continue past recombination.
  eq.tca_handoff(tau_prev, y);
  for (double tau : {120.0, 400.0, 2000.0}) {
    auto rhs = [&eq](double t, std::span<const double> yy,
                     std::span<double> dd) { eq.rhs_full(t, yy, dd); };
    ode.integrate(rhs, tau_prev, tau, y, opts);
    tau_prev = tau;
    const auto res = eq.einstein_residuals(tau, y);
    EXPECT_LT(std::abs(res.trace) / res.scale, 5e-3) << "tau=" << tau;
    EXPECT_LT(std::abs(res.shear) / res.scale, 5e-3) << "tau=" << tau;
  }
}

TEST(Evolution, PotentialsNearlyEqualToday) {
  // phi - psi ~ anisotropic stress, negligible at z = 0.
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, small_cfg());
  pb::EvolveRequest req;
  req.k = 0.01;
  const auto r = ev.evolve(req);
  EXPECT_NEAR(r.final_state.phi / r.final_state.psi, 1.0, 1e-3);
}

TEST(Evolution, ScaleFactorTracksBackground) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, small_cfg());
  pb::EvolveRequest req;
  req.k = 0.005;
  const auto r = ev.evolve(req);
  EXPECT_NEAR(r.final_state.a, 1.0, 2e-4);
}

TEST(Evolution, CdmGrowsAfterHorizonEntry) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, small_cfg());
  pb::EvolveRequest req;
  req.k = 0.05;
  req.sample_taus = {500.0, 2000.0, 8000.0};
  const auto r = ev.evolve(req);
  ASSERT_EQ(r.samples.size(), 3u);
  // Matter-era growth: delta ~ a, and a ~ tau^2 up to the residual
  // radiation correction (a(tau) rises slightly slower than tau^2 at
  // these epochs), so the factor lands below the naive 16.
  const double a_ratio = r.samples[1].a / r.samples[0].a;
  const double g1 =
      std::abs(r.samples[1].delta_c / r.samples[0].delta_c);
  EXPECT_NEAR(g1, a_ratio, 0.2 * a_ratio);
  EXPECT_GT(g1, 6.0);
  EXPECT_LT(g1, 16.0);
  EXPECT_GT(std::abs(r.samples[2].delta_c),
            std::abs(r.samples[1].delta_c));
}

TEST(Evolution, PhotonsOscillateBeforeRecombination) {
  // delta_g at recombination changes sign with k across an acoustic
  // oscillation; verify non-monotone behavior over a k sweep.
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, small_cfg());
  int sign_changes = 0;
  double prev = 0.0;
  for (double k = 0.02; k < 0.12; k += 0.01) {
    pb::EvolveRequest req;
    req.k = k;
    req.sample_taus = {w.rec.tau_star()};
    const auto r = ev.evolve(req, w.rec.tau_star() + 10.0);
    const double dg = r.samples[0].delta_g;
    if (prev != 0.0 && dg * prev < 0.0) ++sign_changes;
    prev = dg;
  }
  EXPECT_GE(sign_changes, 1);
}

TEST(Evolution, TightCouplingThresholdInsensitive) {
  // Halving the TCA exit threshold must not change the answer much.
  const auto& w = world();
  pb::PerturbationConfig cfg_a = small_cfg();
  pb::PerturbationConfig cfg_b = small_cfg();
  cfg_b.tca_eps = cfg_a.tca_eps / 4.0;
  pb::EvolveRequest req;
  req.k = 0.05;
  const auto ra = pb::ModeEvolver(w.bg, w.rec, cfg_a).evolve(req, 400.0);
  const auto rb = pb::ModeEvolver(w.bg, w.rec, cfg_b).evolve(req, 400.0);
  EXPECT_LT(rb.tau_switch, ra.tau_switch);
  EXPECT_NEAR(ra.final_state.delta_g, rb.final_state.delta_g,
              5e-3 * std::abs(rb.final_state.delta_g));
  EXPECT_NEAR(ra.final_state.delta_c, rb.final_state.delta_c,
              5e-3 * std::abs(rb.final_state.delta_c));
}

TEST(Evolution, MassiveNeutrinosSuppressSmallScalePower) {
  // The defining MDM signature: free-streaming massive neutrinos damp
  // delta_m on small scales relative to CDM.
  pc::Background bg_mdm(pc::CosmoParams::mixed_dark_matter());
  pc::Recombination rec_mdm(bg_mdm);
  const auto& w = world();

  pb::PerturbationConfig cfg = small_cfg();
  pb::PerturbationConfig cfg_mdm = small_cfg();
  cfg_mdm.lmax_massive_nu = 8;

  auto ratio_at = [&](double k) {
    pb::EvolveRequest req;
    req.k = k;
    const auto r_cdm =
        pb::ModeEvolver(w.bg, w.rec, cfg).evolve(req);
    const auto r_mdm =
        pb::ModeEvolver(bg_mdm, rec_mdm, cfg_mdm).evolve(req);
    return std::abs(r_mdm.final_state.delta_m /
                    r_cdm.final_state.delta_m);
  };
  const double large_scale = ratio_at(0.002);
  const double small_scale = ratio_at(0.08);
  EXPECT_LT(small_scale, 0.8 * large_scale);
}

TEST(Equations, MassiveNeutrinoBlockIsTheBackgroundGrid) {
  // The momentum nodes are the background's own: every node of the mdm
  // q-grid gets a row, and scdm's modes carry no massive block at all.
  const pc::Background bg_mdm(pc::CosmoParams::mixed_dark_matter());
  const pc::Recombination rec_mdm(bg_mdm);
  ASSERT_NE(bg_mdm.nu(), nullptr);
  const pb::ModeEquations mdm(bg_mdm, rec_mdm, small_cfg(), 0.01);
  EXPECT_EQ(mdm.layout().n_q(), bg_mdm.nu()->q_grid().size());
  EXPECT_EQ(mdm.layout().n_q(), 16u);

  const auto& w = world();
  EXPECT_EQ(w.bg.nu(), nullptr);
  const pb::ModeEquations scdm(w.bg, w.rec, small_cfg(), 0.01);
  EXPECT_EQ(scdm.layout().n_q(), 0u);
  EXPECT_EQ(mdm.layout().size() - scdm.layout().size(),
            16u * (small_cfg().lmax_massive_nu + 1));
}

TEST(Equations, FlopEstimateScalesWithLmax) {
  const auto& w = world();
  pb::PerturbationConfig small = small_cfg();
  pb::PerturbationConfig big = small_cfg();
  big.lmax_photon = 512;
  pb::ModeEquations eq_s(w.bg, w.rec, small, 0.01);
  pb::ModeEquations eq_b(w.bg, w.rec, big, 0.01);
  EXPECT_GT(eq_b.flops_per_rhs(), 3 * eq_s.flops_per_rhs());
}
