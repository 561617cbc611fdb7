// Cross-integrator coverage for the DOP853 core, the line-of-sight
// default and solver=auto:
//
//  * dense-output samples from dop853 agree with the clamped-step DVERK
//    samples to integration tolerance on the Appendix-A mode system
//    (3 cosmologies x low/high k);
//  * C_l^TT computed under integrator=dop853 agrees with the dverk
//    reference well inside the solver accuracy-gate envelope;
//  * an LOS run on its default core (dop853) takes at most half the RHS
//    evaluations of the same run on dverk, with C_l within 1e-4 of it;
//  * the store identity separates the integrator families: a journal
//    written under integrator=dop853 is rejected by an
//    integrator=dverk resume (and vice versa);
//  * solver=auto is the same run as solver=los: same identity, every
//    mode projected to l_max, bitwise the same C_l, a los journal
//    resumes under auto, and the drivers agree on it;
//  * every BENCH_*.json committed at the repo root parses as JSON and
//    carries a schema_version (the bench-schema tier-1 check).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boltzmann/mode_evolution.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"
#include "store/mode_result_store.hpp"

namespace pb = plinger::boltzmann;
namespace pr = plinger::run;
namespace ps = plinger::store;
namespace fs = std::filesystem;

namespace {

/// Small but real hierarchy run (the test_los_resume scale): seconds
/// total, covering the TCA handoff and the full tower.
pr::RunConfig small_config(const std::string& integrator) {
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
  cfg.integrator = integrator;
  return cfg;
}

/// solver=auto config on a low-k grid, 0.0002 ... 0.002, three of its
/// seven modes below k = 0.001.
pr::RunConfig auto_config(const std::string& driver = "serial") {
  pr::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.0002;
  cfg.k_max = 0.002;
  cfg.n_k = 7;
  cfg.l_max = 24;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.solver = "auto";
  cfg.los_accuracy = "draft";
  cfg.driver = driver;
  cfg.workers = 2;
  return cfg;
}

std::string temp_store(const std::string& name) {
  const std::string p =
      ::testing::TempDir() + "plinger_integrator_" + name + ".pj";
  std::error_code ec;
  fs::remove(p, ec);
  return p;
}

/// Worst |a - b| over paired samples, normalized per field by the
/// largest magnitude that field reaches across both trajectories (a
/// pure relative comparison would blow up where oscillating
/// perturbations cross zero).
double worst_scaled_diff(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double scale = 1e-30;
  for (double v : a) scale = std::max(scale, std::abs(v));
  for (double v : b) scale = std::max(scale, std::abs(v));
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

/// Minimal recursive-descent JSON syntax checker — enough to reject a
/// torn or hand-mangled bench file without growing a parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // '{'
    ws();
    if (peek('}')) return true;
    while (true) {
      ws();
      if (!string_lit()) return false;
      ws();
      if (!expect(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++i_;  // '['
    ws();
    if (peek(']')) return true;
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string_lit() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++i_) {
      if (i_ >= s_.size() || s_[i_] != *p) return false;
    }
    return true;
  }
  void ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool peek(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool expect(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------
// Dense-output samples vs clamped-step DVERK on the mode system.

class DenseAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(DenseAgreement, InterpolatedSamplesMatchClampedDverk) {
  const std::string preset = GetParam();
  pr::RunConfig base = small_config("dverk");
  base.set_preset(preset);
  const auto ctx = pr::make_context(base);
  const double tau0 = ctx->conformal_age();

  // A mid-history sample grid (the LOS regime and the movie workloads
  // both sample here); 12 times so several land inside one dop853 step.
  std::vector<double> taus;
  for (int i = 1; i <= 12; ++i) {
    taus.push_back(tau0 * (0.05 + 0.07 * static_cast<double>(i)));
  }

  for (const double k : {0.005, 0.2}) {
    pb::PerturbationConfig pcfg = base.perturbation();
    pcfg.rtol = 1e-6;
    pcfg.lmax_photon = 32;

    pb::EvolveRequest req;
    req.k = k;
    req.lmax_photon = 32;  // pin both integrators to the same tower
    req.sample_taus = taus;

    pcfg.integrator = pb::IntegratorKind::dverk;
    const pb::ModeEvolver ref_ev(ctx->background(), ctx->recombination(),
                                 pcfg);
    const pb::ModeResult ref = ref_ev.evolve(req);

    pcfg.integrator = pb::IntegratorKind::dop853;
    const pb::ModeEvolver dense_ev(ctx->background(),
                                   ctx->recombination(), pcfg);
    const pb::ModeResult got = dense_ev.evolve(req);

    ASSERT_EQ(ref.samples.size(), taus.size()) << preset << " k=" << k;
    ASSERT_EQ(got.samples.size(), taus.size()) << preset << " k=" << k;

    // Collect each field across the sample set and compare at the
    // integration-tolerance scale (both trajectories carry their own
    // O(rtol) global error, so 1e-3 of the field's dynamic range is a
    // generous shared envelope at rtol = 1e-6).
    const auto field_of = [](const pb::ModeResult& r, auto proj) {
      std::vector<double> v;
      for (const auto& s : r.samples) v.push_back(proj(s));
      return v;
    };
    const auto check = [&](const char* name, auto proj) {
      const double worst =
          worst_scaled_diff(field_of(ref, proj), field_of(got, proj));
      EXPECT_LT(worst, 1e-3)
          << preset << " k=" << k << " field=" << name;
    };
    check("delta_c", [](const pb::TransferSample& s) { return s.delta_c; });
    check("delta_b", [](const pb::TransferSample& s) { return s.delta_b; });
    check("delta_g", [](const pb::TransferSample& s) { return s.delta_g; });
    check("theta_g", [](const pb::TransferSample& s) { return s.theta_g; });
    check("eta", [](const pb::TransferSample& s) { return s.eta; });
    check("h", [](const pb::TransferSample& s) { return s.h; });
    check("phi", [](const pb::TransferSample& s) { return s.phi; });
    check("psi", [](const pb::TransferSample& s) { return s.psi; });
    check("pi_pol", [](const pb::TransferSample& s) { return s.pi_pol; });

    // The point of the exercise: the dense path answers the same grid
    // with fewer RHS evaluations than the clamped path.
    EXPECT_LT(got.stats.n_rhs, ref.stats.n_rhs) << preset << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, DenseAgreement,
                         ::testing::Values("scdm", "lcdm", "mdm"));

// ---------------------------------------------------------------------
// Cross-integrator C_l^TT agreement.

TEST(CrossIntegrator, ClAgreesWellInsideAccuracyEnvelope) {
  const auto ctx = pr::make_context(small_config("dverk"));
  const pr::RunPlan ref_plan(small_config("dverk"), ctx);
  const pr::RunPlan dop_plan(small_config("dop853"), ctx);
  const auto ref_cl =
      pr::make_spectra(ref_plan, ref_plan.execute()).temperature.cl;
  const auto dop_cl =
      pr::make_spectra(dop_plan, dop_plan.execute()).temperature.cl;
  ASSERT_EQ(ref_cl.size(), dop_cl.size());
  double worst = 0.0;
  for (std::size_t l = 2; l < ref_cl.size(); ++l) {
    ASSERT_GT(ref_cl[l], 0.0) << "l=" << l;
    worst = std::max(worst,
                     std::abs(dop_cl[l] - ref_cl[l]) / ref_cl[l]);
  }
  // The solver accuracy gate tolerates up to ~20% worst-l error for
  // the LOS approximation; two exact integrators at rtol = 1e-5 must
  // sit orders of magnitude inside that envelope.
  EXPECT_LT(worst, 2e-3);
}

// ---------------------------------------------------------------------
// The line-of-sight default: dop853 does the work of a dverk LOS run in
// at most half the RHS evaluations, and lands on its C_l.

TEST(LosDefaultIntegrator, HalvesTheRhsWorkOfDverkAndKeepsItsCl) {
  // One lcdm cl-grid LOS run at bench_los's smoke shape; the default
  // core resolves to dop853, the reference pins dverk.
  pr::RunConfig fast;
  fast.set_preset("lcdm");
  fast.grid = "cl";
  fast.l_max = 120;
  fast.points_per_osc = 2.0;
  fast.lmax_polarization = 12;
  fast.lmax_neutrino = 16;
  fast.rtol = 1e-5;
  fast.solver = "los";
  fast.driver = "serial";
  pr::RunConfig slow = fast;
  slow.integrator = "dverk";

  const auto ctx = pr::make_context(fast);
  const pr::RunPlan fast_plan(fast, ctx);
  const pr::RunPlan slow_plan(slow, ctx);
  EXPECT_EQ(fast_plan.perturbation().integrator, pb::IntegratorKind::dop853);
  const auto fast_out = fast_plan.execute();
  const auto slow_out = slow_plan.execute();
  ASSERT_EQ(fast_out.results.size(), slow_out.results.size());

  // Work: the dense output answers the 240 source times per mode inside
  // accepted steps instead of clamping a DVERK leg to each of them.
  long rhs_fast = 0, rhs_slow = 0;
  for (const auto& [ik, r] : fast_out.results) rhs_fast += r.stats.n_rhs;
  for (const auto& [ik, r] : slow_out.results) rhs_slow += r.stats.n_rhs;
  EXPECT_LE(2 * rhs_fast, rhs_slow)
      << "dop853 " << rhs_fast << " vs dverk " << rhs_slow;

  // Accuracy, COBE factor divided out: TT and EE relative, TE guarded
  // at 1% of its peak, where it crosses zero.
  const auto fast_spec = pr::make_spectra(fast_plan, fast_out);
  const auto slow_spec = pr::make_spectra(slow_plan, slow_out);
  const std::size_t l_pol = slow_spec.polarization_l_max;
  ASSERT_EQ(fast_spec.polarization_l_max, l_pol);
  ASSERT_GE(l_pol, 2u);
  // Worst |fast - slow| / max(|slow|, guard * peak |slow|) over l.
  using Column = plinger::spectra::AngularSpectrum pr::SpectrumSet::*;
  const auto worst = [&](Column column, std::size_t l_top, double guard) {
    const auto raw = [&](const pr::SpectrumSet& set, std::size_t l) {
      return (set.*column).cl[l] / set.cobe_factor;
    };
    double peak = 0.0, w = 0.0;
    for (std::size_t l = 2; l <= l_top; ++l) {
      peak = std::max(peak, std::abs(raw(slow_spec, l)));
    }
    for (std::size_t l = 2; l <= l_top; ++l) {
      const double ref = raw(slow_spec, l);
      w = std::max(w, std::abs(raw(fast_spec, l) - ref) /
                          std::max(std::abs(ref), guard * peak));
    }
    return w;
  };
  EXPECT_LT(worst(&pr::SpectrumSet::temperature, fast.l_max, 0.0), 1e-4);
  EXPECT_LT(worst(&pr::SpectrumSet::polarization, l_pol, 0.0), 1e-4);
  EXPECT_LT(worst(&pr::SpectrumSet::cross, l_pol, 0.01), 1e-4);
}

// ---------------------------------------------------------------------
// Store identity: integrator families never cross-resume; solver=auto
// and solver=los journals are one family.

TEST(IntegratorIdentity, Dop853JournalRejectedByDverkResume) {
  const auto ctx = pr::make_context(small_config("dverk"));
  const std::string path = temp_store("dop853");

  pr::RunConfig writer = small_config("dop853");
  writer.store = path;
  const pr::RunPlan wplan(writer, ctx);
  ASSERT_EQ(wplan.execute().results.size(), 6u);

  pr::RunConfig reader = small_config("dverk");
  reader.store = path;
  const pr::RunPlan rplan(reader, ctx);
  EXPECT_NE(wplan.identity().value, rplan.identity().value);
  EXPECT_THROW(rplan.execute(), ps::StoreIdentityMismatch);

  // And the reverse: a dverk journal refuses a dop853 resume.
  const std::string path2 = temp_store("dverk");
  pr::RunConfig writer2 = small_config("dverk");
  writer2.store = path2;
  ASSERT_EQ(pr::RunPlan(writer2, ctx).execute().results.size(), 6u);
  pr::RunConfig reader2 = small_config("dop853");
  reader2.store = path2;
  EXPECT_THROW(pr::RunPlan(reader2, ctx).execute(),
               ps::StoreIdentityMismatch);

  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path2, ec);
}

TEST(IntegratorIdentity, AutoJournalRejectedByLosResume) {
  // Named for the refusal it used to pin.  solver=auto is now the same
  // run as solver=los, so a los journal cut short resumes under auto and
  // finishes on the uninterrupted C_l, bit for bit.
  const auto ctx = pr::make_context(auto_config());
  const pr::RunPlan ref_plan(auto_config(), ctx);
  const auto ref_cl =
      pr::make_spectra(ref_plan, ref_plan.execute()).temperature.cl;

  const std::string path = temp_store("auto");
  pr::RunConfig writer = auto_config();
  writer.solver = "los";
  writer.store = path;
  writer.stop_after = 3;
  const pr::RunPlan wplan(writer, ctx);
  EXPECT_LT(wplan.execute().results.size(), 7u);

  pr::RunConfig reader = auto_config();
  reader.store = path;
  const pr::RunPlan rplan(reader, ctx);
  EXPECT_EQ(wplan.identity(), rplan.identity());
  const auto out = rplan.execute();
  ASSERT_EQ(out.results.size(), 7u);
  EXPECT_GE(out.n_modes_loaded, 3u);
  EXPECT_EQ(out.n_modes_loaded + out.n_modes_computed, 7u);
  EXPECT_EQ(pr::make_spectra(rplan, out).temperature.cl, ref_cl);

  std::error_code ec;
  fs::remove(path, ec);
}

// ---------------------------------------------------------------------
// solver=auto: the line of sight for every mode.

TEST(AutoSolver, RoutesModesAroundTheCrossover) {
  // Named for the low-k reroute it used to pin.  Every auto mode now
  // takes the line of sight, low k included, and the run is los's: same
  // identity, same towers, the same C_l bit for bit.
  const auto ctx = pr::make_context(auto_config());
  const pr::RunPlan plan(auto_config(), ctx);
  pr::RunConfig los = auto_config();
  los.solver = "los";
  const pr::RunPlan los_plan(los, ctx);
  EXPECT_EQ(plan.identity(), los_plan.identity());

  const auto out = plan.execute();
  ASSERT_EQ(out.results.size(), 7u);
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    EXPECT_TRUE(r.samples.empty()) << "k=" << r.k;
    EXPECT_EQ(r.lmax, plan.config().l_max) << "k=" << r.k;
    EXPECT_EQ(r.f_gamma.size(), plan.config().l_max + 1) << "k=" << r.k;
    EXPECT_EQ(r.g_gamma.size(), plan.config().l_max + 1) << "k=" << r.k;
  }

  const auto spectra = pr::make_spectra(plan, out);
  const auto los_spectra = pr::make_spectra(los_plan, los_plan.execute());
  EXPECT_EQ(spectra.modes_used, 7u);
  EXPECT_EQ(spectra.temperature.cl, los_spectra.temperature.cl);
  EXPECT_EQ(spectra.polarization.cl, los_spectra.polarization.cl);
  EXPECT_EQ(spectra.cross.cl, los_spectra.cross.cl);
  for (std::size_t l = 2; l < spectra.temperature.cl.size(); ++l) {
    EXPECT_TRUE(std::isfinite(spectra.temperature.cl[l])) << "l=" << l;
    EXPECT_GT(spectra.temperature.cl[l], 0.0) << "l=" << l;
  }
}

TEST(AutoSolver, DriversAgreeBitwiseOnTheRouting) {
  const auto ctx = pr::make_context(auto_config());
  const pr::RunPlan serial_plan(auto_config("serial"), ctx);
  const pr::RunPlan threads_plan(auto_config("threads"), ctx);
  const auto serial_cl =
      pr::make_spectra(serial_plan, serial_plan.execute()).temperature.cl;
  const auto threads_cl =
      pr::make_spectra(threads_plan, threads_plan.execute()).temperature.cl;
  ASSERT_EQ(serial_cl.size(), threads_cl.size());
  for (std::size_t l = 0; l < serial_cl.size(); ++l) {
    EXPECT_EQ(serial_cl[l], threads_cl[l]) << "l=" << l;
  }
}

// ---------------------------------------------------------------------
// Bench artifact schema check.

TEST(BenchSchema, EveryBenchJsonParsesAndCarriesSchemaVersion) {
  std::size_t n_found = 0;
  for (const auto& entry : fs::directory_iterator(PLINGER_REPO_ROOT)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json") {
      continue;
    }
    ++n_found;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.is_open()) << name;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    EXPECT_TRUE(JsonChecker(text).valid()) << name << " is not valid JSON";
    EXPECT_NE(text.find("\"schema_version\""), std::string::npos)
        << name << " lacks a schema_version field";
  }
  // The repo commits its bench records; an empty sweep means the glob
  // (or the checkout) is broken, not that there is nothing to check.
  EXPECT_GE(n_found, 5u);
}
