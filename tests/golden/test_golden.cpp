// Golden regression fixture: a committed reference C_l and per-mode
// flop/step-count table for a coarse k-grid, recomputed and diffed by
// this test.  Physics regressions (equations, integrator, hierarchy
// sizing) are caught here independently of the run-trace layer or any
// scheduling change: the serial driver alone feeds the comparison.
//
// Timing-dependent fields (cpu_seconds, wallclock) are never written to
// the fixture.  Deterministic counters (flops, accepted/rejected steps,
// RHS evaluations) are compared exactly; double-valued physics is
// compared with a relative tolerance so a benign change of summation
// order or libm build does not trip the test.
//
// Regenerate after a *deliberate* physics/integrator change with:
//   PLINGER_REGEN_GOLDEN=1 ./build/tests/test_golden

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/ascii_table.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"
#include "spectra/cl.hpp"

namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;

namespace {

constexpr std::size_t kLMax = 32;
constexpr double kRelTolMode = 1e-9;  ///< per-mode transfer fields
constexpr double kRelTolCl = 1e-7;    ///< integrated C_l

std::string golden_path(const char* name) {
  return std::string(PLINGER_GOLDEN_DIR) + "/" + name;
}

struct GoldenRun {
  pp::KSchedule schedule;
  pp::RunOutput out;
  plinger::spectra::AngularSpectrum spec;

  GoldenRun()
      : schedule(make_schedule()), out(run()), spec(accumulate()) {}

  static pp::KSchedule make_schedule() {
    const plinger::cosmo::Background bg(
        plinger::cosmo::CosmoParams::standard_cdm());
    return pp::KSchedule(
        plinger::spectra::make_cl_kgrid(kLMax, bg.conformal_age(), 2.0,
                                        1.5),
        pp::IssueOrder::largest_first);
  }

  pp::RunOutput run() const {
    const plinger::cosmo::CosmoParams params =
        plinger::cosmo::CosmoParams::standard_cdm();
    const plinger::cosmo::Background bg(params);
    const plinger::cosmo::Recombination rec(bg);
    pb::PerturbationConfig cfg;
    cfg.rtol = 1e-5;
    pp::RunSetup setup;
    return pp::run_linger_serial(bg, rec, cfg, schedule, setup);
  }

  plinger::spectra::AngularSpectrum accumulate() const {
    plinger::spectra::ClAccumulator acc(
        kLMax, plinger::spectra::PowerLawSpectrum{});
    for (const auto& [ik, r] : out.results) {
      acc.add_mode(r.k, schedule.weight_of_ik(ik), r.f_gamma);
    }
    return acc.temperature();
  }
};

const GoldenRun& golden_run() {
  static const GoldenRun g;
  return g;
}

/// Fixture row per mode: ik k flops n_accepted n_rejected n_rhs
/// delta_c delta_m f_gamma2.
std::vector<std::vector<double>> mode_rows(const GoldenRun& g) {
  std::vector<std::vector<double>> rows;
  for (const auto& [ik, r] : g.out.results) {
    rows.push_back({static_cast<double>(ik), r.k,
                    static_cast<double>(r.flops),
                    static_cast<double>(r.stats.n_accepted),
                    static_cast<double>(r.stats.n_rejected),
                    static_cast<double>(r.stats.n_rhs),
                    r.final_state.delta_c, r.final_state.delta_m,
                    r.f_gamma.size() > 2 ? r.f_gamma[2] : 0.0});
  }
  return rows;
}

/// Fixture row per multipole: l C_l.
std::vector<std::vector<double>> cl_rows(const GoldenRun& g) {
  std::vector<std::vector<double>> rows;
  for (std::size_t l = 2; l <= g.spec.l_max(); ++l) {
    rows.push_back({static_cast<double>(l), g.spec.cl[l]});
  }
  return rows;
}

void write_fixture(const std::string& path,
                   const std::vector<std::string>& columns,
                   const std::vector<std::vector<double>>& rows) {
  std::ofstream os(path);
  ASSERT_TRUE(os.is_open()) << path;
  plinger::io::AsciiTableWriter table(os, columns, 17);
  for (const auto& row : rows) table.row(row);
}

std::vector<std::vector<double>> read_fixture(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.is_open())
      << path << " missing - run with PLINGER_REGEN_GOLDEN=1";
  return plinger::io::read_ascii_table(is);
}

bool regen_requested() {
  const char* regen = std::getenv("PLINGER_REGEN_GOLDEN");
  return regen != nullptr && std::string(regen) != "0";
}

}  // namespace

TEST(Golden, RegenerateIfRequested) {
  if (!regen_requested()) {
    GTEST_SKIP() << "set PLINGER_REGEN_GOLDEN=1 to rewrite fixtures";
  }
  const auto& g = golden_run();
  write_fixture(golden_path("golden_modes.txt"),
                {"ik", "k", "flops", "n_accepted", "n_rejected", "n_rhs",
                 "delta_c", "delta_m", "f_gamma2"},
                mode_rows(g));
  write_fixture(golden_path("golden_cl.txt"), {"l", "cl"}, cl_rows(g));
}

TEST(Golden, PerModeCountersAndTransfersMatchFixture) {
  if (regen_requested()) GTEST_SKIP() << "regenerating";
  const auto& g = golden_run();
  const auto expect = read_fixture(golden_path("golden_modes.txt"));
  const auto got = mode_rows(g);
  ASSERT_EQ(got.size(), expect.size()) << "k-grid size changed";
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i].size(), got[i].size()) << "row " << i;
    const std::size_t ik = static_cast<std::size_t>(expect[i][0]);
    EXPECT_EQ(got[i][0], expect[i][0]) << "ik, row " << i;
    EXPECT_NEAR(got[i][1], expect[i][1],
                kRelTolMode * std::abs(expect[i][1]))
        << "k, ik " << ik;
    // Deterministic integer counters: exact.
    EXPECT_EQ(got[i][2], expect[i][2]) << "flops, ik " << ik;
    EXPECT_EQ(got[i][3], expect[i][3]) << "n_accepted, ik " << ik;
    EXPECT_EQ(got[i][4], expect[i][4]) << "n_rejected, ik " << ik;
    EXPECT_EQ(got[i][5], expect[i][5]) << "n_rhs, ik " << ik;
    // Transfer-function physics: tolerance-based.
    for (std::size_t c = 6; c < expect[i].size(); ++c) {
      EXPECT_NEAR(got[i][c], expect[i][c],
                  kRelTolMode * std::abs(expect[i][c]) + 1e-300)
          << "column " << c << ", ik " << ik;
    }
  }
}

TEST(Golden, AngularSpectrumMatchesFixture) {
  if (regen_requested()) GTEST_SKIP() << "regenerating";
  const auto& g = golden_run();
  const auto expect = read_fixture(golden_path("golden_cl.txt"));
  const auto got = cl_rows(g);
  ASSERT_EQ(got.size(), expect.size()) << "l range changed";
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const auto l = static_cast<std::size_t>(expect[i][0]);
    EXPECT_EQ(got[i][0], expect[i][0]) << "l, row " << i;
    EXPECT_NEAR(got[i][1], expect[i][1],
                kRelTolCl * std::abs(expect[i][1]))
        << "C_l at l=" << l;
  }
}
