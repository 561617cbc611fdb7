// ThermoCache must be a drop-in replacement for the direct
// Background/Recombination/NuDensity accessors: same physics to well
// below the source tables' own discretization error, immutable and
// bitwise-reproducible under concurrent readers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "cosmo/background.hpp"
#include "cosmo/recombination.hpp"
#include "cosmo/thermo_cache.hpp"
#include "math/spline.hpp"

namespace {

using plinger::cosmo::Background;
using plinger::cosmo::CosmoParams;
using plinger::cosmo::Recombination;
using plinger::cosmo::ThermoCache;
using plinger::cosmo::ThermoPoint;

// The analytic channels (power-law grho, adotoa) differ from Background
// only by multiply-vs-divide rounding; the tabulated channels (opacity,
// cs2, massive-nu ratios) by the fine-grid resample of the source
// splines.  Bounds are set ~10x above the observed maxima so genuine
// regressions trip them while rounding jitter does not.
constexpr double kTolAnalytic = 1e-12;
constexpr double kTolTabulated = 1e-6;

double rel_diff(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale > 0.0 ? std::abs(a - b) / scale : 0.0;
}

/// Scale factors spanning the full integration range: deep radiation era
/// through recombination to today, plus off-grid irrational offsets.
std::vector<double> probe_a() {
  auto a = plinger::math::logspace(1e-10, 1.0, 400);
  for (double extra : {2.7e-7, 9.109e-4, 1.0 / 1101.0, 0.031415926, 0.5}) {
    a.push_back(extra);
  }
  return a;
}

class ThermoCacheTest : public ::testing::Test {
 protected:
  void check_against_direct(const CosmoParams& params) {
    const Background bg(params);
    const Recombination rec(bg);
    const ThermoCache cache(bg, rec);

    for (const double a : probe_a()) {
      const ThermoPoint p = cache.eval(a);
      const auto g = bg.grho(a);

      EXPECT_LE(rel_diff(p.grho.cdm, g.cdm), kTolAnalytic) << "a=" << a;
      EXPECT_LE(rel_diff(p.grho.baryon, g.baryon), kTolAnalytic) << "a=" << a;
      EXPECT_LE(rel_diff(p.grho.photon, g.photon), kTolAnalytic) << "a=" << a;
      EXPECT_LE(rel_diff(p.grho.nu_massless, g.nu_massless), kTolAnalytic)
          << "a=" << a;
      EXPECT_LE(rel_diff(p.grho.lambda, g.lambda), kTolAnalytic) << "a=" << a;
      EXPECT_LE(rel_diff(p.grho.nu_massive, g.nu_massive), kTolTabulated)
          << "a=" << a;

      EXPECT_LE(rel_diff(p.adotoa, bg.adotoa(a)), kTolTabulated) << "a=" << a;
      EXPECT_LE(rel_diff(p.adotdota_over_a, bg.adotdota_over_a(a)),
                kTolTabulated)
          << "a=" << a;
      EXPECT_LE(rel_diff(p.opacity, rec.opacity(a)), kTolTabulated)
          << "a=" << a;
      EXPECT_LE(rel_diff(p.cs2_baryon, rec.cs2_baryon(a)), kTolTabulated)
          << "a=" << a;

      EXPECT_LE(rel_diff(p.nu_xi, bg.nu_xi(a)), kTolAnalytic) << "a=" << a;
      EXPECT_LE(rel_diff(p.grho_nu_rel_one, bg.grho_nu_rel_one(a)),
                kTolAnalytic)
          << "a=" << a;
      if (bg.nu() != nullptr) {
        EXPECT_LE(rel_diff(p.nu_rho_ratio, bg.nu()->rho_ratio(bg.nu_xi(a))),
                  kTolTabulated)
            << "a=" << a;
      } else {
        EXPECT_EQ(p.nu_rho_ratio, 1.0) << "a=" << a;
      }
    }
  }
};

TEST_F(ThermoCacheTest, MatchesDirectAccessorsStandardCDM) {
  check_against_direct(CosmoParams::standard_cdm());
}

TEST_F(ThermoCacheTest, MatchesDirectAccessorsLambdaCDM) {
  check_against_direct(CosmoParams::lambda_cdm());
}

TEST_F(ThermoCacheTest, MatchesDirectAccessorsMassiveNeutrinos) {
  check_against_direct(CosmoParams::mixed_dark_matter());
}

TEST_F(ThermoCacheTest, QueriesBelowTableStartClampTabulatedChannels) {
  // The integrators never start below a ~ 1e-8, but a stray query below
  // kAMin must stay bounded and physical: the tabulated channels clamp
  // to the table edge (opacity ~ a^-2 would drive a boundary-cubic
  // extrapolation in ln a to huge negative values within a few
  // spacings), while the analytic channels remain exact.
  const Background bg(CosmoParams::standard_cdm());
  const Recombination rec(bg);
  const ThermoCache cache(bg, rec);
  const double a = 0.3 * ThermoCache::kAMin;  // below the cache table
  const ThermoPoint p = cache.eval(a);
  const ThermoPoint edge = cache.eval(ThermoCache::kAMin);
  EXPECT_EQ(p.opacity, edge.opacity);
  EXPECT_EQ(p.cs2_baryon, edge.cs2_baryon);
  EXPECT_GT(p.opacity, 0.0);
  EXPECT_LE(rel_diff(p.adotoa, bg.adotoa(a)), kTolAnalytic);
  EXPECT_LE(rel_diff(p.grho.photon, bg.grho(a).photon), kTolAnalytic);
}

TEST_F(ThermoCacheTest, ConcurrentReadersBitwiseMatchSerial) {
  // The cache is shared read-only by all worker threads of a run with no
  // synchronization; concurrent evaluation must be bitwise identical to
  // serial evaluation (no hidden mutable state).
  const Background bg(CosmoParams::mixed_dark_matter());
  const Recombination rec(bg);
  const ThermoCache cache(bg, rec);

  const auto a_grid = probe_a();
  std::vector<ThermoPoint> serial(a_grid.size());
  for (std::size_t i = 0; i < a_grid.size(); ++i) {
    serial[i] = cache.eval(a_grid[i]);
  }

  constexpr int kThreads = 8;
  std::vector<std::vector<ThermoPoint>> per_thread(
      kThreads, std::vector<ThermoPoint>(a_grid.size()));
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Each thread sweeps in a different order to interleave accesses.
      for (std::size_t j = 0; j < a_grid.size(); ++j) {
        const std::size_t i =
            (t % 2 == 0) ? j : a_grid.size() - 1 - j;
        per_thread[t][i] = cache.eval(a_grid[i]);
      }
    });
  }
  for (auto& th : pool) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < a_grid.size(); ++i) {
      const ThermoPoint& s = serial[i];
      const ThermoPoint& p = per_thread[t][i];
      EXPECT_EQ(s.grho.total(), p.grho.total());
      EXPECT_EQ(s.adotoa, p.adotoa);
      EXPECT_EQ(s.adotdota_over_a, p.adotdota_over_a);
      EXPECT_EQ(s.opacity, p.opacity);
      EXPECT_EQ(s.cs2_baryon, p.cs2_baryon);
      EXPECT_EQ(s.nu_rho_ratio, p.nu_rho_ratio);
    }
  }
}

}  // namespace
