// SourceTable layer: the unified source/projection pipeline.
//
// The E-mode projection is held directly against the full Boltzmann
// hierarchy's G_l moments — the same cross-solver agreement contract
// the temperature projection has carried since the LOS path landed.

#include "boltzmann/source_table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "math/bessel.hpp"
#include "math/spline.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "spectra/cl.hpp"

namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;
namespace pm = plinger::math;
namespace pr = plinger::run;

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

// The projection before the triangular table, kept as the oracle: a
// rectangular table (every node carries every l) and the scalar loop
// that folds every l at every refined point.  The triangular table and
// the vector loop must give towers within 1e-27 of each tower's peak
// of these and C_l with the same bits.
namespace {

class RectangularTable {
 public:
  RectangularTable(std::size_t l_max, double x_max)
      : l_max_(l_max), dx_(pb::kBesselDx) {
    n_nodes_ = static_cast<std::size_t>(std::ceil(x_max / dx_)) + 2;
    const std::size_t width = l_max_ + 1;
    j_.assign(n_nodes_ * width, 0.0);
    jp_.assign(n_nodes_ * width, 0.0);
    std::vector<double> jl(width + 1, 0.0);
    for (std::size_t i = 0; i < n_nodes_; ++i) {
      const double x = static_cast<double>(i) * dx_;
      double* jrow = j_.data() + i * width;
      double* jprow = jp_.data() + i * width;
      if (x < 1e-12) {
        jrow[0] = 1.0;
        if (l_max_ >= 1) jprow[1] = 1.0 / 3.0;
        continue;
      }
      pm::sph_bessel_j_array(x, jl);
      for (std::size_t l = 0; l <= l_max_; ++l) {
        jrow[l] = jl[l];
        jprow[l] = (l == 0) ? -jl[1]
                            : jl[l - 1] -
                                  (static_cast<double>(l) + 1.0) / x * jl[l];
      }
    }
  }

  void eval(double x, std::span<double> jl) const {
    std::size_t i = static_cast<std::size_t>(x / dx_);
    i = std::min(i, n_nodes_ - 2);
    const double t = x / dx_ - static_cast<double>(i);
    const double t2 = t * t, t3 = t2 * t;
    const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
    const double h10 = t3 - 2.0 * t2 + t;
    const double h01 = -2.0 * t3 + 3.0 * t2;
    const double h11 = t3 - t2;
    const std::size_t width = l_max_ + 1;
    const double* j0 = j_.data() + i * width;
    const double* j1 = j0 + width;
    const double* p0 = jp_.data() + i * width;
    const double* p1 = p0 + width;
    for (std::size_t l = 0; l < jl.size(); ++l) {
      jl[l] = h00 * j0[l] + h01 * j1[l] + dx_ * (h10 * p0[l] + h11 * p1[l]);
    }
  }

 private:
  std::size_t l_max_ = 0;
  double dx_ = 0.0;
  std::size_t n_nodes_ = 0;
  std::vector<double> j_, jp_;
};

pb::ProjectedMode rectangular_project(const pb::SourceTable& src,
                                      std::size_t l_max,
                                      const RectangularTable& table) {
  const double k = src.k;
  const double tau0 = src.tau0;
  std::vector<double> tau, st0_c, st1_c, st2_c, se_c;
  {
    const pm::CubicSpline sp0(src.tau, src.s_t0);
    const pm::CubicSpline sp1(src.tau, src.s_t1);
    const pm::CubicSpline sp2(src.tau, src.s_t2);
    const pm::CubicSpline spe(src.tau, src.s_e);
    std::size_t hint = 0;
    for (std::size_t j = 0; j + 1 < src.tau.size(); ++j) {
      const double t0 = src.tau[j], t1 = src.tau[j + 1];
      const auto m = static_cast<std::size_t>(
          std::max(1.0, std::ceil(k * (t1 - t0) / 0.25)));
      for (std::size_t i = 0; i < m; ++i) {
        const double t =
            (i == 0) ? t0
                     : t0 + (t1 - t0) * static_cast<double>(i) /
                                static_cast<double>(m);
        tau.push_back(t);
        if (i == 0) {
          st0_c.push_back(src.s_t0[j]);
          st1_c.push_back(src.s_t1[j]);
          st2_c.push_back(src.s_t2[j]);
          se_c.push_back(src.s_e[j]);
        } else {
          st0_c.push_back(sp0(t, hint));
          st1_c.push_back(sp1(t, hint));
          st2_c.push_back(sp2(t, hint));
          se_c.push_back(spe(t, hint));
        }
      }
    }
    tau.push_back(src.tau.back());
    st0_c.push_back(src.s_t0.back());
    st1_c.push_back(src.s_t1.back());
    st2_c.push_back(src.s_t2.back());
    se_c.push_back(src.s_e.back());
  }

  const std::size_t n = tau.size();
  pb::ProjectedMode out;
  out.f_gamma.assign(l_max + 1, 0.0);
  out.g_gamma.assign(l_max + 1, 0.0);
  std::vector<double> jl(l_max + 2, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double w =
        (j == 0)       ? 0.5 * (tau[1] - tau[0])
        : (j == n - 1) ? 0.5 * (tau[n - 1] - tau[n - 2])
                       : 0.5 * (tau[j + 1] - tau[j - 1]);
    const double x = k * (tau0 - tau[j]);
    table.eval(x, std::span<double>(jl));
    const double st0 = st0_c[j], st1 = st1_c[j];
    const double st2 = st2_c[j], se = se_c[j];
    for (std::size_t l = 0; l <= l_max; ++l) {
      double jlp;
      if (l == 0) {
        jlp = -jl[1];
      } else if (x > 1e-12) {
        jlp = jl[l - 1] - (static_cast<double>(l) + 1.0) / x * jl[l];
      } else {
        jlp = (l == 1) ? 1.0 / 3.0 : 0.0;
      }
      double ek;
      if (x > 1e-6) {
        const double dl = static_cast<double>(l);
        ek = dl * (dl + 1.0) / (x * x) * jl[l] - 2.0 / x * jlp;
      } else {
        ek = (l == 0) ? 2.0 / 3.0 : (l == 2) ? 2.0 / 15.0 : 0.0;
      }
      out.f_gamma[l] +=
          w * (st0 * jl[l] + st1 * jlp + st2 * (3.0 * ek - 2.0 * jl[l]));
      out.g_gamma[l] += w * se * ek;
    }
  }
  for (double& t : out.f_gamma) t *= 4.0;
  for (double& t : out.g_gamma) t *= 4.0;
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::ranges::equal(a, b, [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

/// Largest |a_l - b_l| over the tower, in units of the tower's peak.
double worst_relative_to_peak(const std::vector<double>& got,
                              const std::vector<double>& want) {
  double peak = 0.0, worst = 0.0;
  for (std::size_t l = 0; l < want.size(); ++l) {
    peak = std::max(peak, std::abs(want[l]));
    worst = std::max(worst, std::abs(got[l] - want[l]));
  }
  return worst / peak;
}

}  // namespace

TEST(ProjectionOracle, TriangularTableKeepsTheRectangularTablesBits) {
  // Every LOS mode of a small lcdm run at l_max 200, evolved with the
  // run's own shaping, projected through the run's table (l_max + 1 out
  // to the largest k tau0), a table twice as wide in x, and the oracle.
  pr::RunConfig cfg;
  cfg.set_preset("lcdm");
  cfg.solver = "los";
  cfg.grid = "cl";
  cfg.l_max = 200;
  cfg.driver = "serial";
  const pr::RunPlan plan(cfg, pr::make_context(cfg));
  const pr::RunContext& ctx = plan.context();
  const auto& setup = plan.setup();
  const auto& schedule = plan.schedule();
  const pb::ModeEvolver evolver = ctx.make_evolver(plan.perturbation());
  const double tau0 = ctx.background().conformal_age();
  const double x_max = std::max(1.0, schedule.k_grid().back() * tau0);
  const std::size_t l_max = cfg.l_max;
  const pb::BesselTable table(l_max + 1, x_max);
  const pb::BesselTable wide(l_max + 1, 2.0 * x_max);
  const RectangularTable rect(l_max + 1, x_max);

  plinger::spectra::PowerLawSpectrum primordial;
  primordial.n_s = cfg.n_s;
  plinger::spectra::ClAccumulator acc(l_max, primordial);
  plinger::spectra::ClAccumulator oracle_acc(l_max, primordial);
  std::vector<double> jl(l_max + 2), jl_rect(l_max + 2);
  std::size_t n_cut = 0;
  for (std::size_t ik = 1; ik <= schedule.size(); ++ik) {  // 1-based
    const double k = schedule.k_of_ik(ik);
    pb::EvolveRequest req;
    req.k = k;
    req.lmax_photon = setup.los.lmax_evolve;
    req.sample_taus = setup.los.sample_taus;
    const pb::SourceTable src = pb::build_source_table(
        ctx.background(), ctx.recombination(), evolver.evolve(req, tau0));
    const pb::ProjectedMode got = pb::project_source_table(src, l_max, table);
    const pb::ProjectedMode want = rectangular_project(src, l_max, rect);
    // (a) Towers move only far below their peak.
    EXPECT_LE(worst_relative_to_peak(got.f_gamma, want.f_gamma), 1e-27)
        << "k=" << k;
    EXPECT_LE(worst_relative_to_peak(got.g_gamma, want.g_gamma), 1e-27)
        << "k=" << k;
    // (c) The row lengths and node values do not depend on x_max.
    const pb::ProjectedMode far = pb::project_source_table(src, l_max, wide);
    EXPECT_TRUE(same_bits(far.f_gamma, got.f_gamma)) << "k=" << k;
    EXPECT_TRUE(same_bits(far.g_gamma, got.g_gamma)) << "k=" << k;
    // (d) At the mode's sample points: kept entries are the rectangle's
    // bits, dropped ones are zeroed and were below the cut there.
    for (const double tau : src.tau) {
      const double x = k * (tau0 - tau);
      const std::size_t n = table.eval(x, std::span<double>(jl));
      rect.eval(x, std::span<double>(jl_rect));
      ASSERT_GE(n, 2u);
      n_cut += n < jl.size();
      for (std::size_t l = 0; l < jl.size(); ++l) {
        if (l < n) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(jl[l]),
                    std::bit_cast<std::uint64_t>(jl_rect[l]))
              << "l=" << l << " x=" << x;
        } else {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(jl[l]), 0u)
              << "l=" << l << " x=" << x;
          ASSERT_LT(std::abs(jl_rect[l]), 2.0 * pb::kBesselCut)
              << "l=" << l << " x=" << x;
        }
      }
    }
    const double w = schedule.weight_of_ik(ik);
    acc.add_mode(k, w, got.f_gamma);
    acc.add_mode_polarization(k, w, got.g_gamma);
    acc.add_mode_cross(k, w, got.f_gamma, got.g_gamma);
    oracle_acc.add_mode(k, w, want.f_gamma);
    oracle_acc.add_mode_polarization(k, w, want.g_gamma);
    oracle_acc.add_mode_cross(k, w, want.f_gamma, want.g_gamma);
  }
  // The cut binds somewhere (low-k modes and the x -> 0 end of every
  // window), or the test shows nothing.
  EXPECT_GT(n_cut, 0u);
  // (b) C_l are the oracle's bits.
  EXPECT_TRUE(same_bits(acc.temperature().cl, oracle_acc.temperature().cl));
  EXPECT_TRUE(
      same_bits(acc.polarization().cl, oracle_acc.polarization().cl));
  EXPECT_TRUE(same_bits(acc.cross().cl, oracle_acc.cross().cl));
}
