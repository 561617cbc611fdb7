// The flop-count model behind the paper-style Mflop accounting (§5.1)
// must track the implemented RHS: bench_floprate divides ModeResult.flops
// by CPU time, so a stale model silently mis-reports the sustained rate.
// These tests pin the per-term model for the cached and direct paths and
// assert the evolver's reported flops are n_rhs * flops_per_rhs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "boltzmann/equations.hpp"
#include "boltzmann/mode_evolution.hpp"
#include "cosmo/thermo_cache.hpp"

namespace {

using plinger::boltzmann::EvolveRequest;
using plinger::boltzmann::ModeEquations;
using plinger::boltzmann::ModeEvolver;
using plinger::boltzmann::PerturbationConfig;
using plinger::boltzmann::StateLayout;
using plinger::cosmo::Background;
using plinger::cosmo::CosmoParams;
using plinger::cosmo::Recombination;
using plinger::cosmo::ThermoCache;

/// The current cost model, spelled out term by term (see
/// ModeEquations::flops_per_rhs): the fused-cache common block saves the
/// spline searches of the direct path, and the tabulated-coupling
/// interior rows lo*f[l-1] - hi*f[l+1] cost 5 (photon/polarization,
/// with the opacity term), 3 (massless nu), and 4 (massive nu, with the
/// qke scale) flops per multipole.
std::uint64_t expected_flops(bool cached, const StateLayout& layout) {
  const std::uint64_t common = cached ? 140 : 180;
  const std::uint64_t photons = (layout.lmax_photon() - 1) * 5 +
                                (layout.lmax_polarization() + 1) * 5;
  const std::uint64_t neutrinos = (layout.lmax_neutrino() + 1) * 3;
  const std::uint64_t massive =
      layout.n_q() * ((layout.lmax_massive_nu() + 1) * 4 + 28);
  return common + photons + neutrinos + massive;
}

class FlopsModelTest : public ::testing::Test {
 protected:
  FlopsModelTest()
      : bg_(CosmoParams::standard_cdm()), rec_(bg_), cache_(bg_, rec_) {}

  Background bg_;
  Recombination rec_;
  ThermoCache cache_;
};

TEST_F(FlopsModelTest, CachedAndDirectModelsMatchFormula) {
  for (const std::size_t lmax_photon : {16UL, 128UL, 1024UL}) {
    PerturbationConfig cfg;
    cfg.lmax_photon = lmax_photon;
    const ModeEquations cached(bg_, rec_, cfg, 0.05, &cache_);
    const ModeEquations direct(bg_, rec_, cfg, 0.05, nullptr);
    EXPECT_EQ(cached.flops_per_rhs(), expected_flops(true, cached.layout()));
    EXPECT_EQ(direct.flops_per_rhs(), expected_flops(false, direct.layout()));
    EXPECT_LT(cached.flops_per_rhs(), direct.flops_per_rhs());
  }
}

TEST_F(FlopsModelTest, MassiveNeutrinoTermScalesWithMomentumNodes) {
  // scdm's modes have no momentum nodes and mdm's have the background's
  // 16: the model charges exactly 16 massive rows more for mdm.
  const Background bg(CosmoParams::mixed_dark_matter());
  const Recombination rec(bg);
  const ThermoCache cache(bg, rec);
  PerturbationConfig cfg;
  cfg.lmax_massive_nu = 6;
  const ModeEquations none(bg_, rec_, cfg, 0.05, &cache_);
  const ModeEquations mdm(bg, rec, cfg, 0.05, &cache);
  ASSERT_EQ(none.layout().n_q(), 0u);
  ASSERT_EQ(mdm.layout().n_q(), 16u);
  EXPECT_EQ(none.flops_per_rhs(), expected_flops(true, none.layout()));
  EXPECT_EQ(mdm.flops_per_rhs(), expected_flops(true, mdm.layout()));
  EXPECT_EQ(mdm.flops_per_rhs() - none.flops_per_rhs(),
            16u * ((cfg.lmax_massive_nu + 1) * 4 + 28));
}

TEST_F(FlopsModelTest, EvolverReportsRhsCountTimesModel) {
  // bench_floprate's Mflop/s = ModeResult.flops / cpu_seconds; the flops
  // numerator must be exactly n_rhs * the cached-path per-call model.
  PerturbationConfig cfg;
  cfg.rtol = 1e-4;
  const ModeEvolver evolver(bg_, rec_, cfg);
  EvolveRequest req;
  req.k = 0.01;
  req.lmax_photon = 64;
  const auto r = evolver.evolve(req);
  ASSERT_GT(r.stats.n_rhs, 0);

  PerturbationConfig used = cfg;
  used.lmax_photon = r.lmax;
  const ModeEquations eq(bg_, rec_, used, req.k, evolver.thermo_cache());
  EXPECT_EQ(r.flops,
            static_cast<std::uint64_t>(r.stats.n_rhs) * eq.flops_per_rhs());
  EXPECT_EQ(eq.flops_per_rhs(), expected_flops(true, eq.layout()));
}

TEST_F(FlopsModelTest, CachedRhsMatchesDirectRhs) {
  // The two paths integrate the same physics: the cached RHS may differ
  // from the direct one only by the thermo-channel interpolation jitter
  // (~1e-9 relative), never structurally.
  PerturbationConfig cfg;
  cfg.lmax_photon = 32;
  cfg.lmax_polarization = 8;
  cfg.lmax_neutrino = 16;
  const double k = 0.05;
  const ModeEquations cached(bg_, rec_, cfg, k, &cache_);
  const ModeEquations direct(bg_, rec_, cfg, k, nullptr);

  const double tau0 = plinger::boltzmann::kIcEps / k;
  std::vector<double> y = direct.initial_conditions(tau0);
  const auto layout = direct.layout();
  ASSERT_EQ(y.size(), layout.size());

  for (const double a : {y[StateLayout::a], 1e-5, 1e-3, 0.1}) {
    y[StateLayout::a] = a;
    const double tau = bg_.tau_of_a(a);
    std::vector<double> dy_c(y.size()), dy_d(y.size());
    cached.rhs_full(tau, y, dy_c);
    direct.rhs_full(tau, y, dy_d);
    double norm = 0.0;
    for (const double v : dy_d) norm = std::max(norm, std::abs(v));
    for (std::size_t j = 0; j < y.size(); ++j) {
      EXPECT_NEAR(dy_c[j], dy_d[j], 1e-6 * (std::abs(dy_d[j]) + norm))
          << "a=" << a << " slot=" << j;
    }
  }
}

}  // namespace
