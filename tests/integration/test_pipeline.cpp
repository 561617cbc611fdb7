// End-to-end integration test: the full Figure-2/Figure-3 pipeline at
// miniature scale — parallel run -> C_l -> COBE normalization -> sky
// realization -> map statistics — asserting the cross-module contracts
// that unit tests cannot see.

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "plinger/driver.hpp"
#include "skymap/synthesis.hpp"
#include "spectra/cl.hpp"
#include "spectra/matterpower.hpp"

namespace {
using namespace plinger;

struct Pipeline {
  cosmo::CosmoParams params = cosmo::CosmoParams::standard_cdm();
  cosmo::Background bg{params};
  cosmo::Recombination rec{bg};
  spectra::AngularSpectrum spec;
  double cobe_factor = 0.0;
  std::size_t l_max = 48;

  Pipeline() {
    // Generous k_margin so the top multipoles are fully covered.
    const auto kgrid =
        spectra::make_cl_kgrid(l_max, bg.conformal_age(), 2.0, 2.0);
    const parallel::KSchedule schedule(
        kgrid, parallel::IssueOrder::largest_first);
    boltzmann::PerturbationConfig cfg;
    cfg.rtol = 1e-5;
    parallel::RunSetup setup;
    const auto out = parallel::run_plinger_threads(bg, rec, cfg,
                                                   schedule, setup, 2);
    spectra::ClAccumulator acc(l_max, spectra::PowerLawSpectrum{});
    for (const auto& [ik, r] : out.results) {
      acc.add_mode(r.k, schedule.weight_of_ik(ik), r.f_gamma);
    }
    spec = acc.temperature();
    cobe_factor = spectra::normalize_to_cobe_quadrupole(spec, 18e-6,
                                                        params.t_cmb);
  }
};

const Pipeline& pipeline() {
  static Pipeline p;
  return p;
}
}  // namespace

TEST(Pipeline, SachsWolfePlateauIsFlat) {
  const auto& p = pipeline();
  // l(l+1) C_l varies slowly over the plateau: within ~60% from l=3 to
  // l=30 (the gentle rise toward the first peak).
  const double d3 = p.spec.dl(3);
  for (std::size_t l = 3; l <= 30; ++l) {
    EXPECT_GT(p.spec.dl(l), 0.8 * d3) << l;
    EXPECT_LT(p.spec.dl(l), 1.8 * d3) << l;
  }
}

TEST(Pipeline, CobeNormalizationGivesKnownPlateau) {
  const auto& p = pipeline();
  const double dt10 =
      p.params.t_cmb * 1e6 * std::sqrt(p.spec.dl(10));
  EXPECT_GT(dt10, 26.0);
  EXPECT_LT(dt10, 33.0);
}

TEST(Pipeline, RisingTowardTheFirstPeak) {
  // The first acoustic peak is at l ~ 210: well below it the spectrum
  // rises with l.  (The last few multipoles of a miniature run are
  // k-grid-truncated, so compare only fully covered l.)
  const auto& p = pipeline();
  EXPECT_GT(p.spec.dl(26), 1.03 * p.spec.dl(8));
}

TEST(Pipeline, SkyRealizationMatchesSpectrum) {
  const auto& p = pipeline();
  const auto alm = skymap::realize_alm(p.spec, 2026);
  const auto map = skymap::synthesize(alm, 64, 128);
  double expect = 0.0;
  for (std::size_t l = 2; l <= p.l_max; ++l) {
    expect += (2.0 * l + 1.0) * alm.realized_cl(l) /
              (4.0 * std::numbers::pi);
  }
  EXPECT_NEAR(map.variance(), expect, 0.05 * expect);
  // Tens of micro-K rms at these scales.
  const double rms_uk = map.rms() * p.params.t_cmb * 1e6;
  EXPECT_GT(rms_uk, 20.0);
  EXPECT_LT(rms_uk, 90.0);
}

TEST(Pipeline, CobeFactorPropagatesToMatterPower) {
  const auto& p = pipeline();
  // sigma_8 with the COBE factor lands near the famous ~1.2 even from a
  // coarse k-grid (order-of-magnitude contract between the two outputs).
  boltzmann::PerturbationConfig cfg;
  cfg.rtol = 1e-5;
  boltzmann::ModeEvolver ev(p.bg, p.rec, cfg);
  spectra::MatterPower mp((spectra::PowerLawSpectrum()));
  for (double lk = -3.5; lk <= -0.15; lk += 0.25) {
    boltzmann::EvolveRequest req;
    req.k = std::pow(10.0, lk);
    req.lmax_photon = boltzmann::lmax_photon_for_k(
        req.k, p.bg.conformal_age(), 400);
    mp.add_mode(req.k, ev.evolve(req).final_state.delta_m);
  }
  mp.finalize(p.cobe_factor);
  const double s8 = mp.sigma_r(8.0 / p.params.h);
  EXPECT_GT(s8, 0.8);
  EXPECT_LT(s8, 1.7);
}
