// Crash-resume for line-of-sight journals: a solver=los run killed
// after N checkpoints must resume — through the run layer, for all
// three drivers — to a C_l^TT bitwise identical to an uninterrupted LOS
// run.  The "crash" is the same flush-then-stop hook the hierarchy
// crash-resume suite uses (StoreOptions::stop_after).  Every LOS record
// is a version-0 tower projected by the worker, so the journal
// round-trips exactly what the spectrum accumulates.
//
// Also pinned here: the LOS-extended identity makes hierarchy and LOS
// journals mutually unresumable (StoreIdentityMismatch both ways), and a
// journal holding records of a retired sample-bearing layout (version 2
// or 3) is refused with a message that says what to do — never
// silently truncated as a torn tail, never modified.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/fortran_binary.hpp"
#include "plinger/records.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"
#include "store/crc32.hpp"
#include "store/mode_result_store.hpp"

namespace pr = plinger::run;
namespace ps = plinger::store;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kNModes = 6;
constexpr std::size_t kStopAfter = 3;

/// A small but real LOS run: full conformal age (the sources need the
/// visibility epoch), draft sampling, reduced towers.  Seconds total.
pr::RunConfig los_config(const std::string& driver) {
  pr::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.004;
  cfg.k_max = 0.04;
  cfg.n_k = kNModes;
  cfg.l_max = 24;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.solver = "los";
  cfg.los_accuracy = "draft";
  cfg.driver = driver;
  cfg.workers = 2;
  return cfg;
}

std::string temp_path(const std::string& name) {
  const std::string p =
      ::testing::TempDir() + "plinger_los_resume_" + name + ".bin";
  std::error_code ec;
  fs::remove(p, ec);
  return p;
}

/// One shared context per cosmology: phases and reference must share
/// the thermo cache for the bitwise contract to be meaningful.
std::shared_ptr<const pr::RunContext> shared_context() {
  static const std::shared_ptr<const pr::RunContext> ctx =
      pr::make_context(los_config("serial"));
  return ctx;
}

std::vector<double> cl_of(const pr::RunPlan& plan,
                          const plinger::parallel::RunOutput& out) {
  return pr::make_spectra(plan, out).temperature.cl;
}

class LosResume : public ::testing::TestWithParam<const char*> {};

}  // namespace

TEST_P(LosResume, ResumedClBitwiseMatchesUninterrupted) {
  const std::string driver = GetParam();
  const auto ctx = shared_context();

  // The uninterrupted LOS reference (no store).
  const pr::RunPlan ref_plan(los_config(driver), ctx);
  const auto ref_out = ref_plan.execute();
  ASSERT_EQ(ref_out.results.size(), kNModes);
  const std::vector<double> ref_cl = cl_of(ref_plan, ref_out);

  // Phase 1: checkpoint, "crash" after kStopAfter flushed appends.
  const std::string path = temp_path(driver);
  pr::RunConfig cfg = los_config(driver);
  cfg.store = path;
  cfg.stop_after = kStopAfter;
  const auto phase1 = pr::RunPlan(cfg, ctx).execute();
  EXPECT_LT(phase1.results.size(), kNModes);
  EXPECT_GE(phase1.results.size(), kStopAfter);

  // The journal holds the LOS identity, and every record decoded (so
  // it is version 0: the decoder refuses any other) as a projected
  // tower of l_max + 1 entries.
  const auto journal = ps::read_journal(path);
  EXPECT_EQ(journal.identity, pr::RunPlan(cfg, ctx).identity());
  EXPECT_EQ(journal.results.size(), journal.iks.size());
  EXPECT_GE(journal.results.size(), kStopAfter);
  for (const auto& [ik, r] : journal.results) {
    EXPECT_TRUE(r.samples.empty()) << "ik " << ik;
    EXPECT_EQ(r.lmax, cfg.l_max) << "ik " << ik;
    EXPECT_EQ(r.f_gamma.size(), cfg.l_max + 1) << "ik " << ik;
    EXPECT_EQ(r.g_gamma.size(), cfg.l_max + 1) << "ik " << ik;
  }

  // Phase 2: resume to completion.
  cfg.stop_after = 0;
  const pr::RunPlan plan2(cfg, ctx);
  const auto phase2 = plan2.execute();
  ASSERT_EQ(phase2.results.size(), kNModes);
  EXPECT_GE(phase2.n_modes_loaded, kStopAfter);
  EXPECT_EQ(phase2.n_modes_loaded + phase2.n_modes_computed, kNModes);

  // The journal round-trips the projected towers bit for bit...
  for (const auto& [ik, r] : ref_out.results) {
    const auto it = phase2.results.find(ik);
    ASSERT_NE(it, phase2.results.end()) << "ik " << ik;
    EXPECT_EQ(it->second.f_gamma, r.f_gamma) << "ik " << ik;
    EXPECT_EQ(it->second.g_gamma, r.g_gamma) << "ik " << ik;
  }

  // ...so the spectrum is bitwise the uninterrupted one.
  const std::vector<double> got_cl = cl_of(plan2, phase2);
  ASSERT_EQ(got_cl.size(), ref_cl.size());
  for (std::size_t l = 0; l < ref_cl.size(); ++l) {
    EXPECT_EQ(got_cl[l], ref_cl[l]) << "l " << l;
  }

  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Drivers, LosResume,
                         ::testing::Values("serial", "autotask",
                                           "threads"));

TEST(LosResumeIdentity, HierarchyAndLosJournalsNeverCrossResume) {
  const auto ctx = shared_context();

  // A hierarchy journal over the same grid/physics surface...
  pr::RunConfig hier = los_config("serial");
  hier.solver = "hierarchy";
  hier.store = temp_path("hier");
  (void)pr::RunPlan(hier, ctx).execute();

  // ...must be rejected by an LOS run, not silently reinterpreted.
  pr::RunConfig los = los_config("serial");
  los.store = hier.store;
  EXPECT_THROW((void)pr::RunPlan(los, ctx).execute(),
               ps::StoreIdentityMismatch);

  // And the reverse: an LOS journal refuses a hierarchy resume.
  pr::RunConfig los2 = los_config("serial");
  los2.store = temp_path("los");
  (void)pr::RunPlan(los2, ctx).execute();
  pr::RunConfig hier2 = los_config("serial");
  hier2.solver = "hierarchy";
  hier2.store = los2.store;
  EXPECT_THROW((void)pr::RunPlan(hier2, ctx).execute(),
               ps::StoreIdentityMismatch);

  fs::remove(hier.store);
  fs::remove(los2.store);
}

namespace {

/// A journal holding one record of the retired sample-bearing layout
/// `version`, built by hand after a valid file header: a version-0
/// record of a small tower, its slot 7 rewritten to `version`, a sample
/// block appended ([n_samples] and 15 doubles per sample) and its CRC
/// resealed.  Returns the file's bytes.
std::string retired_journal(const std::string& path, int version) {
  constexpr std::size_t kSamples = 3;
  {
    ps::StoreOptions o;
    o.path = path;
    (void)ps::ModeResultStore(o, ps::RunIdentity{0xDEC0DEull}, 4);
  }
  plinger::boltzmann::ModeResult r;
  r.k = 0.01;
  r.lmax = 4;
  r.f_gamma.assign(5, 0.25);
  r.g_gamma.assign(5, 0.125);
  std::vector<double> rec = plinger::parallel::pack_header(1, r);
  const std::vector<double> payload = plinger::parallel::pack_payload(1, r);
  rec.insert(rec.end(), payload.begin(), payload.end());
  rec[plinger::parallel::kHeaderLength + 7] = version;
  rec.push_back(static_cast<double>(kSamples));
  for (std::size_t i = 0; i < 15 * kSamples; ++i) {
    rec.push_back(static_cast<double>(i + 1));
  }
  rec.push_back(static_cast<double>(ps::crc32_doubles(rec)));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    plinger::io::FortranRecordWriter(out).record(rec);
  }
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// A CRC-clean retired record is not damage: the reader and a resuming
/// store must refuse the journal, name the version and the remedy, and
/// leave its bytes alone — not truncate it as a torn tail and recompute.
void expect_retired_journal_refused(int version) {
  const std::string tag = "version-" + std::to_string(version);
  const std::string path = temp_path(tag + "_refused");
  const std::string bytes = retired_journal(path, version);

  try {
    (void)ps::read_journal(path);
    FAIL() << "read_journal accepted a " << tag << " journal";
  } catch (const ps::StoreCorrupt& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(tag), std::string::npos) << msg;
    EXPECT_NE(msg.find("rerun the line-of-sight modes"), std::string::npos)
        << msg;
  }

  ps::StoreOptions o;
  o.path = path;
  o.resume = true;
  EXPECT_THROW((void)ps::ModeResultStore(o, ps::RunIdentity{0xDEC0DEull}, 4),
               ps::StoreCorrupt);
  std::ifstream in(path, std::ios::binary);
  const std::string after{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(after, bytes) << "the refused journal was modified";
  fs::remove(path);
}

}  // namespace

TEST(LosResume, RetiredVersionTwoJournalRefusedLoudly) {
  expect_retired_journal_refused(2);
}

TEST(LosResume, RetiredVersionThreeJournalRefusedLoudly) {
  expect_retired_journal_refused(3);
}

TEST(LosResumeIdentity, SamplingChangeChangesTheIdentity) {
  // A different los_accuracy tier means different sample times and a
  // different short hierarchy: the identity must move, so a journal
  // recorded at one tier can never seed a run at another.
  const auto ctx = shared_context();
  const pr::RunPlan draft(los_config("serial"), ctx);
  pr::RunConfig cfg = los_config("serial");
  cfg.los_accuracy = "standard";
  const pr::RunPlan standard(cfg, ctx);
  EXPECT_NE(draft.identity().value, standard.identity().value);
}
