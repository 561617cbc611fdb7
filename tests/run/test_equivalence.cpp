// Golden equivalence: the run layer vs the legacy hand-rolled wiring.
//
// The refactor's acceptance bar is bitwise: RunConfig -> RunContext ->
// RunPlan -> execute() must reproduce, bit for bit, what the
// pre-refactor entry points produced by building
// Background/Recombination/KSchedule/RunSetup by hand.  These tests
// recreate that legacy wiring inline (copied from the old linger_cli
// main) and diff every mode, the store identity (so pre-refactor
// journals still resume), and the accumulated temperature spectrum.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>

#include "cosmo/background.hpp"
#include "cosmo/params.hpp"
#include "cosmo/recombination.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"
#include "spectra/cl.hpp"
#include "store/identity.hpp"
#include "store/mode_result_store.hpp"

using namespace plinger;

namespace {

// The shared small-but-real test run: linear grid, reduced hierarchy,
// early stop — seconds, not minutes, and every code path exercised.
run::RunConfig small_config() {
  run::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.002;
  cfg.k_max = 0.02;
  cfg.n_k = 8;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.tau_end = 600.0;
  cfg.lmax_cap = 24;
  cfg.driver = "serial";
  return cfg;
}

// The legacy linger_cli wiring, verbatim: explicit closure expression,
// hand-built schedule and setup, direct driver call.
parallel::RunOutput legacy_run(const run::RunConfig& cfg) {
  cosmo::CosmoParams params = cosmo::CosmoParams::standard_cdm();
  params.h = cfg.h;
  params.omega_b = cfg.omega_b;
  params.omega_lambda = cfg.omega_lambda;
  params.t_cmb = cfg.t_cmb;
  params.n_s = cfg.n_s;
  params.omega_c = 1.0 - params.omega_b - params.omega_lambda -
                   params.omega_gamma() - params.omega_nu_massless();

  const cosmo::Background bg(params);
  cosmo::Recombination::Options ropts;
  ropts.z_reion = cfg.z_reion;
  const cosmo::Recombination rec(bg, ropts);

  const auto kgrid = math::linspace(cfg.k_min, cfg.k_max, cfg.n_k);
  const parallel::KSchedule schedule(kgrid,
                                     parallel::IssueOrder::largest_first);

  boltzmann::PerturbationConfig pcfg;
  pcfg.rtol = cfg.rtol;
  pcfg.lmax_photon = cfg.lmax_photon;
  pcfg.lmax_polarization = cfg.lmax_polarization;
  pcfg.lmax_neutrino = cfg.lmax_neutrino;

  parallel::RunSetup setup;
  setup.tau_end = cfg.tau_end;
  setup.lmax_cap = cfg.lmax_cap;
  return parallel::run_linger_serial(bg, rec, pcfg, schedule, setup);
}

void expect_bitwise_equal(const parallel::RunOutput& a,
                          const parallel::RunOutput& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [ik, ra] : a.results) {
    const auto it = b.results.find(ik);
    ASSERT_NE(it, b.results.end()) << "ik " << ik;
    const auto& rb = it->second;
    EXPECT_EQ(ra.k, rb.k) << "ik " << ik;
    EXPECT_EQ(ra.lmax, rb.lmax) << "ik " << ik;
    EXPECT_EQ(ra.f_gamma, rb.f_gamma) << "ik " << ik;
    EXPECT_EQ(ra.g_gamma, rb.g_gamma) << "ik " << ik;
    EXPECT_EQ(ra.final_state.delta_c, rb.final_state.delta_c);
    EXPECT_EQ(ra.final_state.delta_b, rb.final_state.delta_b);
    EXPECT_EQ(ra.final_state.delta_m, rb.final_state.delta_m);
    EXPECT_EQ(ra.final_state.eta, rb.final_state.eta);
    EXPECT_EQ(ra.tau_switch, rb.tau_switch);
  }
}

}  // namespace

TEST(RunEquivalence, PlanReproducesLegacyWiringBitwise) {
  const run::RunConfig cfg = small_config();
  const auto legacy = legacy_run(cfg);
  const auto modern = run::execute_run(cfg);
  expect_bitwise_equal(legacy, modern);
}

TEST(RunEquivalence, DriversAgreeThroughTheRunLayer) {
  run::RunConfig cfg = small_config();
  const auto ctx = run::make_context(cfg);
  const auto serial = run::RunPlan(cfg, ctx).execute();
  cfg.driver = "threads";
  cfg.workers = 2;
  const auto threads = run::RunPlan(cfg, ctx).execute();
  cfg.driver = "autotask";
  const auto autotask = run::RunPlan(cfg, ctx).execute();
  expect_bitwise_equal(serial, threads);
  expect_bitwise_equal(serial, autotask);
}

TEST(RunEquivalence, IdentityMatchesLegacyHash) {
  // A journal written by the pre-refactor wiring must resume under a
  // plan built from the equivalent RunConfig: the identity hash over
  // (params, pcfg, k_grid, tau_end, lmax_cap) has to come out equal.
  const run::RunConfig cfg = small_config();

  cosmo::CosmoParams params = cosmo::CosmoParams::standard_cdm();
  params.omega_c = 1.0 - params.omega_b - params.omega_lambda -
                   params.omega_gamma() - params.omega_nu_massless();
  boltzmann::PerturbationConfig pcfg;
  pcfg.rtol = cfg.rtol;
  pcfg.lmax_photon = cfg.lmax_photon;
  pcfg.lmax_polarization = cfg.lmax_polarization;
  pcfg.lmax_neutrino = cfg.lmax_neutrino;
  const auto kgrid = math::linspace(cfg.k_min, cfg.k_max, cfg.n_k);
  const store::RunIdentity legacy = store::run_identity(
      params, {}, pcfg, kgrid, cfg.tau_end, cfg.lmax_cap);

  const run::RunPlan plan(cfg, run::make_context(cfg));
  EXPECT_EQ(plan.identity(), legacy);
}

TEST(RunEquivalence, IdentityHashIsStableAcrossReleases) {
  // Pinned value of the small_config() identity, computed when the run
  // layer landed.  If this changes, every existing journal silently
  // stops resuming — any edit that moves it needs a migration story,
  // not just a new constant.
  const run::RunPlan plan(small_config(), run::make_context(small_config()));
  EXPECT_EQ(plan.identity().value, UINT64_C(0xE0DE65790795AA5C));
}

// Three more pins, one per hashed group whose values come from named
// constants rather than settings: the massive-neutrino momentum nodes,
// the recombination-options salt and the line-of-sight extension.  Each
// value was computed before those settings became constants; a journal,
// LRU entry or cached context written then must still be found.
TEST(RunEquivalence, MassiveNeutrinoIdentityIsStableAcrossReleases) {
  run::RunConfig cfg = small_config();
  cfg.set_preset("mdm");
  const run::RunPlan plan(cfg, run::make_context(cfg));
  EXPECT_EQ(plan.identity().value, UINT64_C(0x46ffcad6e3762fbc));
  EXPECT_EQ(run::RunContext::cosmology_key(cfg),
            UINT64_C(0x3816d1913b73a66a));
}

TEST(RunEquivalence, ReionizationIdentityIsStableAcrossReleases) {
  run::RunConfig cfg = small_config();
  cfg.z_reion = 10.0;
  const run::RunPlan plan(cfg, run::make_context(cfg));
  EXPECT_EQ(plan.identity().value, UINT64_C(0xa4684e3951934ad3));
  EXPECT_EQ(run::RunContext::cosmology_key(cfg),
            UINT64_C(0x2fba3b751e66bac1));
}

TEST(RunEquivalence, LosIdentityIsStableAcrossReleases) {
  // The sample times are read off the recombination tables, so this pin
  // also holds the tables' construction still.
  run::RunConfig cfg = small_config();
  cfg.set_preset("lcdm");
  cfg.solver = "los";
  cfg.grid = "cl";
  cfg.l_max = 60;
  cfg.tau_end = 0.0;
  const run::RunPlan plan(cfg, run::make_context(cfg));
  EXPECT_EQ(plan.identity().value, UINT64_C(0xa4ffbf6dfe9855f7));
}

TEST(RunEquivalence, ReionizationIsPartOfTheIdentity) {
  // The recombination options are hashed only when they leave the
  // defaults: z_reion = 0 keeps the pinned value above, and any other
  // z_reion moves the identity and the context key.  A journal written
  // without reionization is then refused by a run with it.
  run::RunConfig cfg = small_config();
  cfg.store = ::testing::TempDir() + "plinger_reion_identity.pj";
  std::filesystem::remove(cfg.store);
  const run::RunPlan plain(cfg, run::make_context(cfg));
  EXPECT_EQ(plain.identity().value, UINT64_C(0xE0DE65790795AA5C));
  (void)plain.execute();

  run::RunConfig reion = cfg;
  reion.z_reion = 10.0;
  const run::RunPlan reionized(reion, run::make_context(reion));
  EXPECT_NE(reionized.identity(), plain.identity());
  EXPECT_NE(run::RunContext::cosmology_key(reion),
            run::RunContext::cosmology_key(cfg));
  EXPECT_THROW((void)reionized.execute(), store::StoreIdentityMismatch);
  std::filesystem::remove(cfg.store);
}

TEST(RunEquivalence, LosIdentityIsDistinctAndLayered) {
  // solver=los extends the identity (salt + record version 4 + short
  // hierarchy + projection l_max + sample times) on top of the
  // unchanged base hash: an LOS journal can never be confused with a
  // hierarchy journal over the same physics, and the extension composes
  // with the pinned base above rather than moving it.
  run::RunConfig cfg = small_config();
  cfg.tau_end = 0.0;  // LOS needs the visibility epoch: run to today
  cfg.lmax_cap = 0;
  const auto ctx = run::make_context(cfg);
  const run::RunPlan hier(cfg, ctx);

  cfg.solver = "los";
  const run::RunPlan los(cfg, ctx);
  EXPECT_NE(los.identity(), hier.identity());

  // The extension is reproducible from the documented recipe: the
  // legacy base inputs plus the plan's own LosRunSpec.
  cosmo::CosmoParams params = cosmo::CosmoParams::standard_cdm();
  params.omega_c = 1.0 - params.omega_b - params.omega_lambda -
                   params.omega_gamma() - params.omega_nu_massless();
  const auto pcfg = cfg.perturbation();
  const auto kgrid = math::linspace(cfg.k_min, cfg.k_max, cfg.n_k);
  const auto& spec = los.setup().los;
  ASSERT_TRUE(spec.enabled);
  EXPECT_EQ(store::kLosRecordVersion, 4u);
  EXPECT_EQ(spec.l_max, cfg.l_max);
  const store::LosIdentity ext{spec.lmax_evolve, spec.sample_taus,
                               cfg.l_max};
  EXPECT_EQ(los.identity(),
            store::run_identity(params, {}, pcfg, kgrid, cfg.tau_end,
                                cfg.lmax_cap, &ext));

  // The towers' length is part of it: on this linear grid l_max moves
  // nothing but the projection, and still the identity.
  cfg.l_max += 1;
  EXPECT_NE(run::RunPlan(cfg, ctx).identity(), los.identity());
}

TEST(RunEquivalence, SpectraMatchLegacyAccumulationBitwise) {
  // make_spectra() must accumulate exactly like the legacy example
  // loops: ascending ik, trapezoid weights, add_mode() per result, COBE
  // normalization last.  Polarization/cross accumulate into independent
  // sums, so requesting them cannot perturb the temperature bits.
  run::RunConfig cfg = small_config();
  cfg.l_max = cfg.lmax_photon;
  const auto ctx = run::make_context(cfg);
  const run::RunPlan plan(cfg, ctx);
  const auto out = plan.execute();

  const std::size_t l_max = cfg.l_max;
  spectra::PowerLawSpectrum primordial;
  primordial.n_s = cfg.n_s;
  spectra::ClAccumulator acc(l_max, primordial);
  for (const auto& [ik, r] : out.results) {
    acc.add_mode(r.k, plan.schedule().weight_of_ik(ik), r.f_gamma);
  }
  auto want = acc.temperature();
  const double cobe = spectra::normalize_to_cobe_quadrupole(
      want, 18e-6, ctx->params().t_cmb);

  const auto got = run::make_spectra(plan, out);
  ASSERT_EQ(got.temperature.cl.size(), want.cl.size());
  for (std::size_t l = 0; l < want.cl.size(); ++l) {
    EXPECT_EQ(got.temperature.cl[l], want.cl[l]) << "l " << l;
  }
  EXPECT_EQ(got.cobe_factor, cobe);
  EXPECT_EQ(got.modes_used, out.results.size());
}

TEST(RunEquivalence, SharedContextIsBitwiseNeutral) {
  // Two plans sharing one RunContext (one ThermoCache) vs two
  // independently contexted runs: identical bits.  This is the property
  // run_batch() relies on.
  const run::RunConfig cfg = small_config();
  const auto shared = run::make_context(cfg);
  const auto a = run::RunPlan(cfg, shared).execute();
  const auto b = run::RunPlan(cfg, shared).execute();
  const auto solo = run::execute_run(cfg);
  expect_bitwise_equal(a, solo);
  expect_bitwise_equal(b, solo);
}
