// SourceTable layer: the unified source/projection pipeline.
//
// The E-mode projection is held directly against the full Boltzmann
// hierarchy's G_l moments — the same cross-solver agreement contract
// the temperature projection has carried since the LOS path landed.

#include "boltzmann/source_table.hpp"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;

namespace {
struct World {
  pc::Background bg{pc::CosmoParams::standard_cdm()};
  pc::Recombination rec{bg};
  pb::PerturbationConfig cfg;
  std::vector<double> taus;
  World() {
    cfg.rtol = 1e-5;
    taus = pb::los_sample_taus(bg, rec);
  }
};
const World& world() {
  static World w;
  return w;
}

pb::ModeResult los_mode(const World& w, double k) {
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest req;
  req.k = k;
  req.lmax_photon = 40;
  req.sample_taus = w.taus;
  return ev.evolve(req);
}
}  // namespace

TEST(SourceTable, ColumnsCarryTheDocumentedPrefactors) {
  const auto& w = world();
  const auto mode = los_mode(w, 0.02);
  const auto src = pb::build_source_table(w.bg, w.rec, mode);
  ASSERT_EQ(src.tau.size(), mode.samples.size());
  ASSERT_EQ(src.s_t0.size(), src.tau.size());
  ASSERT_EQ(src.s_t1.size(), src.tau.size());
  ASSERT_EQ(src.s_t2.size(), src.tau.size());
  ASSERT_EQ(src.s_e.size(), src.tau.size());
  EXPECT_EQ(src.k, mode.k);
  EXPECT_EQ(src.tau0, mode.tau_end);
  // S_E = (3/16) g Pi and S_T2 = g Pi / 16 share everything but the 3.
  double peak = 0.0;
  for (std::size_t j = 0; j < src.tau.size(); ++j) {
    EXPECT_DOUBLE_EQ(src.s_e[j], 3.0 * src.s_t2[j]);
    peak = std::max(peak, std::abs(src.s_e[j]));
  }
  // The polarization source is alive (Pi is populated, including the
  // tight-coupling era the quasi-static expansion covers).
  EXPECT_GT(peak, 0.0);
}

TEST(SourceTable, PiColumnPopulatedThroughTightCoupling) {
  const auto& w = world();
  const auto mode = los_mode(w, 0.02);
  // Samples recorded before the tight-coupling exit must carry the
  // quasi-static Pi, not the slaved zeros of the state vector.
  int before = 0;
  for (const auto& s : mode.samples) {
    if (s.tau < mode.tau_switch * (1.0 - 1e-9)) {
      EXPECT_NE(s.pi_pol, 0.0) << "tau=" << s.tau;
      ++before;
    }
  }
  ASSERT_GT(before, 0) << "no samples in the tight-coupling era; the "
                          "test needs a k whose switch sits inside the "
                          "visibility window";
}

TEST(SourceTable, EmodeProjectionMatchesHierarchyGl) {
  // The fast path's G_l against the full hierarchy's evolved G_l — the
  // cross-solver agreement that makes C_l^EE/C_l^TE trustworthy.
  const auto& w = world();
  const double k = 0.02;

  // The reference tower carries headroom past the compared range: the
  // spherical-Bessel truncation closure pollutes the top ~10% of the
  // hierarchy's own G_l, which would read as (phantom) projection
  // error.
  // 1.15 k tau0 + 60 is the photon-tower sizing rule; the G tower needs
  // the same reach (the per-mode clamp in ModeEvolver::evolve trims the
  // request to the photon tower).
  pb::PerturbationConfig tall = w.cfg;
  tall.lmax_polarization = 320;
  pb::ModeEvolver ev(w.bg, w.rec, tall);
  pb::EvolveRequest full_req;
  full_req.k = k;
  const auto full = ev.evolve(full_req);
  ASSERT_GE(full.g_gamma.size(), 261u);

  const auto mode = los_mode(w, k);
  const auto src = pb::build_source_table(w.bg, w.rec, mode);
  const auto pm = pb::project_source_table(src, 200);

  // Compare away from zero crossings, like the temperature test: the
  // typical |G_l| at this k sets the amplitude floor.
  double scale = 0.0;
  for (std::size_t l = 40; l <= 200; ++l) {
    scale = std::max(scale, std::abs(full.g_gamma[l]));
  }
  int checked = 0;
  for (std::size_t l = 40; l <= 200; ++l) {
    const double a = full.g_gamma[l], b = pm.g_gamma[l];
    if (std::abs(a) < 0.3 * scale) continue;
    EXPECT_NEAR(b / a, 1.0, 0.06) << "l=" << l;
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(SourceTable, TableAndDirectBesselPathsAgree) {
  const auto& w = world();
  const auto mode = los_mode(w, 0.02);
  const auto src = pb::build_source_table(w.bg, w.rec, mode);
  const double x_max = mode.k * mode.tau_end;
  const pb::BesselTable table(121, x_max);
  const auto fast = pb::project_source_table(src, 120, table);
  const auto ref = pb::project_source_table(src, 120);
  double f_scale = 0.0, g_scale = 0.0;
  for (std::size_t l = 2; l <= 120; ++l) {
    f_scale = std::max(f_scale, std::abs(ref.f_gamma[l]));
    g_scale = std::max(g_scale, std::abs(ref.g_gamma[l]));
  }
  for (std::size_t l = 2; l <= 120; ++l) {
    EXPECT_NEAR(fast.f_gamma[l], ref.f_gamma[l], 1e-4 * f_scale)
        << "l=" << l;
    EXPECT_NEAR(fast.g_gamma[l], ref.g_gamma[l], 1e-4 * g_scale)
        << "l=" << l;
  }
}

TEST(SourceTable, ProjectionRejectsShortTable) {
  // The projection needs l_max + 1 tabled multipoles (the j_l'
  // recurrence reads one l past the request) and must say which range
  // the table actually carries.
  const auto& w = world();
  const auto mode = los_mode(w, 0.02);
  const auto src = pb::build_source_table(w.bg, w.rec, mode);
  const pb::BesselTable table(20, 10.0);
  try {
    (void)pb::project_source_table(src, 20, table);
    ADD_FAILURE() << "a table carrying l <= 20 cannot project l_max = 20";
  } catch (const plinger::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("above the Bessel table range"),
              std::string::npos)
        << e.what();
  }
}
