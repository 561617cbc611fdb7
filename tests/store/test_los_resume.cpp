// Crash-resume for the sample-bearing (version-3 SourceTable) LOS
// record type: a solver=los run killed after N checkpoints must resume
// — through the run layer, for all three drivers — to a C_l^TT bitwise
// identical to an uninterrupted LOS run.  The "crash" is the same
// flush-then-stop hook the hierarchy crash-resume suite uses
// (StoreOptions::stop_after).
//
// Also pinned here: the LOS-extended identity makes hierarchy and LOS
// journals mutually unresumable (StoreIdentityMismatch both ways), the
// journal round-trips the TransferSamples bit for bit including the
// polarization column (the projection input, not just the projected
// output), and a journal holding retired version-2 records is refused
// with a message that says what to do — never silently truncated as a
// torn tail.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

  // The journal holds sample-bearing records and the LOS identity.
  const auto journal = ps::read_journal(path);
  EXPECT_EQ(journal.identity, pr::RunPlan(cfg, ctx).identity());
  const auto n_los_records = static_cast<std::size_t>(std::count_if(
      journal.results.begin(), journal.results.end(),
      [](const auto& entry) { return !entry.second.samples.empty(); }));
  EXPECT_EQ(n_los_records, journal.iks.size());
  EXPECT_GE(n_los_records, kStopAfter);

  // Phase 2: resume to completion.
  cfg.stop_after = 0;
  const pr::RunPlan plan2(cfg, ctx);
  const auto phase2 = plan2.execute();
  ASSERT_EQ(phase2.results.size(), kNModes);
  EXPECT_GE(phase2.n_modes_loaded, kStopAfter);
  EXPECT_EQ(phase2.n_modes_loaded + phase2.n_modes_computed, kNModes);

  // The journal round-trips the projection inputs bit for bit...
  for (const auto& [ik, r] : ref_out.results) {
    const auto it = phase2.results.find(ik);
    ASSERT_NE(it, phase2.results.end()) << "ik " << ik;
    ASSERT_EQ(it->second.samples.size(), r.samples.size()) << "ik " << ik;
    for (std::size_t j = 0; j < r.samples.size(); ++j) {
      EXPECT_EQ(it->second.samples[j].tau, r.samples[j].tau);
      EXPECT_EQ(it->second.samples[j].delta_g, r.samples[j].delta_g);
      EXPECT_EQ(it->second.samples[j].theta_b, r.samples[j].theta_b);
      EXPECT_EQ(it->second.samples[j].phi, r.samples[j].phi);
      EXPECT_EQ(it->second.samples[j].psi, r.samples[j].psi);
      EXPECT_EQ(it->second.samples[j].alpha, r.samples[j].alpha);
      EXPECT_EQ(it->second.samples[j].pi_pol, r.samples[j].pi_pol);
    }
  }

  // ...so the projected spectrum is bitwise the uninterrupted one.
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

TEST(LosResume, JournaledSamplesCarryALivePolarizationColumn) {
  // The version-3 layout exists because version 2's Pi column was dead
  // through tight coupling; a journal whose pi_pol round-trips zeros
  // would pass the bitwise test above while still being useless to the
  // E-mode projection.  Pin that the journaled column is alive.
  const auto ctx = shared_context();
  pr::RunConfig cfg = los_config("serial");
  cfg.store = temp_path("polcol");
  const pr::RunPlan plan(cfg, ctx);
  (void)plan.execute();

  // Reload purely from the journal.
  pr::RunConfig cfg2 = cfg;
  const auto out = pr::RunPlan(cfg2, ctx).execute();
  ASSERT_EQ(out.results.size(), kNModes);
  EXPECT_EQ(out.n_modes_loaded, kNModes);
  for (const auto& [ik, r] : out.results) {
    ASSERT_FALSE(r.samples.empty()) << "ik " << ik;
    bool alive = false;
    for (const auto& s : r.samples) alive = alive || s.pi_pol != 0.0;
    EXPECT_TRUE(alive) << "ik " << ik
                       << ": journaled pi_pol column is all zeros";
  }
  fs::remove(cfg.store);
}

TEST(LosResume, RetiredVersionTwoJournalRefusedLoudly) {
  // Rewrite a fresh version-3 journal's records to claim the retired
  // version-2 layout (re-sealing each record CRC so the frame itself is
  // intact).  Both the reader and a resuming run must refuse the
  // journal with a message that says what to do — a CRC-clean retired
  // record must NOT be silently truncated as a torn tail and recomputed.
  const auto ctx = shared_context();
  pr::RunConfig cfg = los_config("serial");
  cfg.store = temp_path("v2refused");
  (void)pr::RunPlan(cfg, ctx).execute();

  // Patch every mode record in place: frames are [u32 len][doubles]
  // [u32 len]; the first frame is the 6-double file header, every
  // later one is a mode record whose payload version sits at double
  // index 21 + 7 and whose last double is the CRC of the rest.
  {
    std::fstream f(cfg.store,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    bool first = true;
    std::size_t patched = 0;
    while (true) {
      std::uint32_t head = 0;
      f.read(reinterpret_cast<char*>(&head), sizeof head);
      if (f.gcount() < static_cast<std::streamsize>(sizeof head)) break;
      const auto body_at = f.tellg();
      std::vector<double> rec(head / sizeof(double));
      f.read(reinterpret_cast<char*>(rec.data()), head);
      ASSERT_EQ(f.gcount(), static_cast<std::streamsize>(head));
      f.seekg(sizeof(std::uint32_t), std::ios::cur);  // trailing length
      if (!first) {
        ASSERT_GE(rec.size(), 30u);
        ASSERT_EQ(rec[21 + 7], 3.0) << "expected a version-3 record";
        rec[21 + 7] = 2.0;
        rec.back() = static_cast<double>(plinger::store::crc32_doubles(
            std::span<const double>(rec.data(), rec.size() - 1)));
        const auto after = f.tellg();
        f.seekp(body_at);
        f.write(reinterpret_cast<const char*>(rec.data()), head);
        f.seekg(after);
        ++patched;
      }
      first = false;
    }
    ASSERT_GE(patched, kNModes);
  }

  // The reader names the problem...
  try {
    (void)ps::read_journal(cfg.store);
    FAIL() << "read_journal accepted a retired version-2 journal";
  } catch (const ps::StoreCorrupt& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version-2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rerun the line-of-sight modes"),
              std::string::npos)
        << msg;
  }

  // ...and so does a run that tries to resume the journal.
  EXPECT_THROW((void)pr::RunPlan(cfg, ctx).execute(), ps::StoreCorrupt);
  fs::remove(cfg.store);
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
