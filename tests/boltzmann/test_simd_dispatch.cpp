// Bit pins across instruction sets.  The hot functions marked
// PLINGER_HOT (common/simd.hpp) run as an AVX2 copy on a CPU that has
// AVX2 and as the baseline copy elsewhere; both must compute the same
// bits.  The fixture holds hex floats written by a build whose hot
// functions had the baseline copy only, so on an AVX2 host this test
// holds the AVX2 copies to baseline bits, and elsewhere the default
// copies.  It covers:
//
//  * scdm hierarchy at two k (DVERK through the tight-coupling and full
//    legs: rhs_tca, rhs_full, Dverk::attempt_step);
//  * mdm hierarchy at one k (the massive-neutrino rows);
//  * lcdm line of sight at two k, and with z_reion = 10 at one k
//    (Dop853 steps and dense output, BesselTable::eval, fold_point);
//  * the thermal history (x_e, T_b, opacity, c_s^2) and every
//    ThermoCache::eval field at a dozen ln a, for lcdm and mdm.
//
// Every F/G tower entry, the RHS and step counts and a few C_l are
// compared as bits, not within a tolerance.
//
// Regenerate only after a deliberate change of the physics, from a build
// whose hot functions have one copy (off x86-64, or under TSan), with:
//   PLINGER_REGEN_SIMD=1 ./build/tests/test_hotpath
//       --gtest_filter='SimdDispatch.*'

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.hpp"
#include "cosmo/thermo_cache.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"

namespace run = plinger::run;

namespace {

/// key -> values; each fixture line is `key n v_0 ... v_{n-1}` in hex.
using Bits = std::map<std::string, std::vector<double>>;

const std::string kFixture =
    std::string(PLINGER_GOLDEN_DIR) + "/simd_dispatch_bits.txt";

run::RunConfig base(const char* preset) {
  run::RunConfig cfg;
  cfg.set_preset(preset);
  cfg.grid = "linear";
  cfg.lmax_photon = 40;
  cfg.lmax_polarization = 16;
  cfg.lmax_neutrino = 16;
  cfg.lmax_cap = 40;
  cfg.driver = "serial";  // the only driver that keeps n_rejected
  return cfg;
}

run::RunConfig hierarchy(const char* preset, double k_min, double k_max,
                         std::size_t n_k) {
  run::RunConfig cfg = base(preset);
  cfg.k_min = k_min;
  cfg.k_max = k_max;
  cfg.n_k = n_k;
  cfg.l_max = 30;
  return cfg;
}

run::RunConfig los(double k_min, double k_max, std::size_t n_k,
                   double z_reion) {
  run::RunConfig cfg = base("lcdm");
  cfg.solver = "los";
  cfg.k_min = k_min;
  cfg.k_max = k_max;
  cfg.n_k = n_k;
  cfg.l_max = 120;
  cfg.z_reion = z_reion;
  return cfg;
}

void add_run(Bits& bits, const std::string& name,
             const run::RunConfig& cfg) {
  const run::RunPlan plan(cfg, run::make_context(cfg));
  const auto out = plan.execute();
  for (const auto& [ik, r] : out.results) {
    const std::string m = name + ".ik" + std::to_string(ik);
    bits[m + ".f_gamma"] = r.f_gamma;
    bits[m + ".g_gamma"] = r.g_gamma;
    bits[m + ".rhs_accepted_rejected"] = {
        static_cast<double>(r.stats.n_rhs),
        static_cast<double>(r.stats.n_accepted),
        static_cast<double>(r.stats.n_rejected)};
  }
  const run::SpectrumSet s = run::make_spectra(plan, out);
  std::vector<double> cl;
  for (const std::size_t l : {std::size_t{2}, std::size_t{10},
                              std::size_t{30}, s.temperature.l_max()}) {
    cl.push_back(s.temperature.cl[l]);
    cl.push_back(s.polarization.cl[l]);
    cl.push_back(s.cross.cl[l]);
  }
  bits[name + ".cl_tt_ee_te"] = cl;
}

void add_thermo(Bits& bits, const char* preset) {
  const auto ctx = run::make_context(base(preset));
  const auto& rec = ctx->recombination();
  const auto& cache = *ctx->thermo();
  int i = 0;
  for (const double lna : {-18.0, -14.0, -10.0, -8.0, -7.4, -7.0, -6.8,
                           -6.6, -6.2, -5.0, -3.0, -0.5}) {
    const std::string m =
        std::string(preset) + ".thermo" + std::to_string(i++);
    bits[m + ".xe_tb_opac_cs2"] = {rec.x_e_lna(lna), rec.t_baryon_lna(lna),
                                   rec.opacity_lna(lna),
                                   rec.cs2_baryon_lna(lna)};
    const plinger::cosmo::ThermoPoint p = cache.eval(std::exp(lna));
    bits[m + ".cache"] = {
        p.grho.cdm,       p.grho.baryon,      p.grho.photon,
        p.grho.nu_massless, p.grho.nu_massive, p.grho.lambda,
        p.adotoa,         p.adotdota_over_a,  p.opacity,
        p.cs2_baryon,     p.nu_xi,            p.nu_rho_ratio,
        p.grho_nu_rel_one};
  }
}

const Bits& computed() {
  static const Bits bits = [] {
    Bits b;
    add_run(b, "scdm_hierarchy", hierarchy("scdm", 0.004, 0.04, 2));
    add_run(b, "mdm_hierarchy", hierarchy("mdm", 0.002, 0.02, 2));
    add_run(b, "lcdm_los", los(0.01, 0.05, 2, 0.0));
    add_run(b, "lcdm_los_reion", los(0.005, 0.03, 2, 10.0));
    add_thermo(b, "lcdm");
    add_thermo(b, "mdm");
    return b;
  }();
  return bits;
}

bool regen_requested() {
  const char* regen = std::getenv("PLINGER_REGEN_SIMD");
  return regen != nullptr && std::string(regen) != "0";
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace

TEST(SimdDispatch, RegenerateIfRequested) {
  if (!regen_requested()) {
    GTEST_SKIP() << "set PLINGER_REGEN_SIMD=1 to rewrite the fixture";
  }
  std::ofstream os(kFixture);
  ASSERT_TRUE(os.is_open()) << kFixture;
  os << "# Hot-path bits (test_simd_dispatch.cpp), written by the "
     << plinger::hot_copy() << " copy: key n values (hex floats)\n";
  for (const auto& [key, values] : computed()) {
    os << key << ' ' << values.size();
    for (const double v : values) os << ' ' << hex(v);
    os << '\n';
  }
}

TEST(SimdDispatch, HotCopiesComputeTheBaselineBits) {
  if (regen_requested()) GTEST_SKIP() << "regenerating";
  RecordProperty("hot_copy", plinger::hot_copy());
  std::ifstream is(kFixture);
  ASSERT_TRUE(is.is_open()) << kFixture;
  Bits expect;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, word;
    std::size_t n = 0;
    ASSERT_TRUE(ls >> key >> n) << line;
    std::vector<double>& values = expect[key];
    for (std::size_t i = 0; i < n && ls >> word; ++i) {
      values.push_back(std::strtod(word.c_str(), nullptr));
    }
    ASSERT_EQ(values.size(), n) << key;
  }

  const Bits& got = computed();
  ASSERT_EQ(got.size(), expect.size());
  for (const auto& [key, want] : expect) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << key << " was not computed";
    const std::vector<double>& have = it->second;
    ASSERT_EQ(have.size(), want.size()) << key;
    for (std::size_t i = 0; i < want.size(); ++i) {
      // Bits, not values: a signed zero counts too.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(have[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << key << "[" << i << "] = " << hex(have[i]) << ", fixture "
          << hex(want[i]) << ", on the " << plinger::hot_copy() << " copy";
    }
  }
}
