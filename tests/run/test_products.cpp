// make_spectra products: the polarization contract of the unified
// SourceTable pipeline.
//
// Pinned here: solver=los and solver=auto runs deliver genuinely
// nonzero C_l^EE / C_l^TE (the fast path projects E sources, not
// zeros), SpectrumSet::polarization_l_max reports the honest coverage,
// and a run whose mode results cannot reach an l >= 2 polarization
// contribution is refused with a diagnostic instead of handing the
// caller silently-zero EE/TE columns.

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"
#include "store/mode_result_store.hpp"

namespace pr = plinger::run;

namespace {

/// Small but real: full conformal age (the LOS sources need the
/// visibility epoch), draft sampling, reduced towers.  Seconds total.
pr::RunConfig small_config() {
  pr::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.004;
  cfg.k_max = 0.04;
  cfg.n_k = 6;
  cfg.l_max = 24;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.driver = "serial";
  return cfg;
}

std::shared_ptr<const pr::RunContext> shared_context() {
  static const std::shared_ptr<const pr::RunContext> ctx =
      pr::make_context(small_config());
  return ctx;
}

}  // namespace

TEST(MakeSpectraPolarization, LosDeliversNonzeroEeAndTe) {
  pr::RunConfig cfg = small_config();
  cfg.solver = "los";
  cfg.los_accuracy = "draft";
  const pr::RunPlan plan(cfg, shared_context());
  const auto out = plan.execute();
  ASSERT_EQ(out.results.size(), 6u);
  const pr::SpectrumSet spec = pr::make_spectra(plan, out);

  EXPECT_EQ(spec.polarization_l_max, cfg.l_max);
  bool te_alive = false;
  for (std::size_t l = 2; l <= cfg.l_max; ++l) {
    // EE is an auto spectrum: every accumulated quadrature is a square,
    // so "nonzero" means strictly positive at every l.
    EXPECT_GT(spec.polarization.cl[l], 0.0) << "l=" << l;
    te_alive = te_alive || spec.cross.cl[l] != 0.0;
  }
  EXPECT_TRUE(te_alive);
}

TEST(MakeSpectraPolarization, AutoRoutingKeepsAllThreeSpectraAlive) {
  // solver=auto on a low-k grid (0.0004 ... 0.004, its lowest modes
  // below k = 0.001): every mode projects its own E sources, and every
  // spectrum must see them, not just C_l^TT.
  pr::RunConfig cfg = small_config();
  cfg.k_min = 0.0004;
  cfg.k_max = 0.004;
  cfg.solver = "auto";
  cfg.los_accuracy = "draft";
  const pr::RunPlan plan(cfg, shared_context());
  const auto out = plan.execute();
  ASSERT_EQ(out.results.size(), 6u);

  const pr::SpectrumSet spec = pr::make_spectra(plan, out);
  EXPECT_GE(spec.polarization_l_max, 2u);
  bool te_alive = false;
  for (std::size_t l = 2; l <= cfg.l_max; ++l) {
    EXPECT_GT(spec.polarization.cl[l], 0.0) << "l=" << l;
    te_alive = te_alive || spec.cross.cl[l] != 0.0;
  }
  EXPECT_TRUE(te_alive);
}

TEST(MakeSpectraPolarization, RefusesSilentZeroPolarizationColumns) {
  // A result set whose G towers cannot reach l = 2 (doctored here; in
  // the field: a truncated journal or a miswired tower) must be refused
  // loudly — zeros in a C_l^EE column are a lie, not a spectrum.
  pr::RunConfig cfg = small_config();
  const pr::RunPlan plan(cfg, shared_context());
  auto out = plan.execute();
  ASSERT_EQ(out.results.size(), 6u);
  for (auto& [ik, r] : out.results) {
    (void)ik;
    r.g_gamma.resize(2);  // monopole + dipole only: no l >= 2 reach
  }
  try {
    (void)pr::make_spectra(plan, out);
    FAIL() << "make_spectra accepted polarization-free mode results";
  } catch (const plinger::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("polarization"), std::string::npos) << msg;
    EXPECT_NE(msg.find("silently zero"), std::string::npos) << msg;
  }
}

TEST(LosProjectionTable, RefusesAGridItCannotTableBeforeAnyMode) {
  // Every key passes validate(), but the Bessel table grows with k_max
  // tau_end.  k_max = 1e300 asks for one out to x ~ 1e304; a table size
  // wrapped past size_t reads far outside the table and finishes
  // degraded, with garbage in the k = 0.001 mode (F_2 = -38.78 where a
  // k_max = 0.05 run gives -0.347).  k_max = 1e3 asks for about 40 GB.
  // The run must refuse either by name, quickly, before a mode is
  // evolved.
  for (const double k_max : {1e300, 1e3}) {
    SCOPED_TRACE(k_max);
    pr::RunConfig cfg;
    cfg.set_preset("lcdm");
    cfg.solver = "los";
    cfg.grid = "log";
    cfg.k_min = 1e-3;
    cfg.k_max = k_max;
    cfg.n_k = 3;
    cfg.l_max = 20;
    cfg.driver = "threads";
    cfg.workers = 2;
    cfg.store = ::testing::TempDir() + "plinger_los_table_bounds.pj";
    std::filesystem::remove(cfg.store);
    cfg.validate();
    const pr::RunPlan plan(cfg, pr::make_context(cfg));
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (void)plan.execute();
      ADD_FAILURE() << "a k_max of " << k_max << " cannot be projected";
    } catch (const plinger::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("x_max"), std::string::npos)
          << e.what();
    }
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              1.0);
    // Nothing was journaled: the refusal came before any mode.
    EXPECT_TRUE(plinger::store::read_journal(cfg.store).results.empty());
    std::filesystem::remove(cfg.store);
  }
}
