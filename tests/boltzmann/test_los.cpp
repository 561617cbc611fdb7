#include "boltzmann/los.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boltzmann/source_table.hpp"
#include "common/error.hpp"
#include "math/bessel.hpp"

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
}  // namespace

TEST(LineOfSight, SampleTimesCoverVisibilityAndIsw) {
  const auto& w = world();
  ASSERT_GT(w.taus.size(), 100u);
  EXPECT_LT(w.taus.front(), w.rec.tau_star());
  EXPECT_GT(w.taus.back(), 0.9 * w.bg.conformal_age());
  for (std::size_t i = 1; i < w.taus.size(); ++i) {
    EXPECT_GT(w.taus[i], w.taus[i - 1]);
  }
  // Dense through the visibility peak: spacing there well under sigma.
  const double tau_star = w.rec.tau_star();
  for (std::size_t i = 1; i < w.taus.size(); ++i) {
    if (std::abs(w.taus[i] - tau_star) < 10.0) {
      EXPECT_LT(w.taus[i] - w.taus[i - 1], 5.0);
    }
  }
}

TEST(LineOfSight, MatchesFullBoltzmannAtPercentLevel) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  const double k = 0.02;

  pb::EvolveRequest full_req;
  full_req.k = k;
  const auto full = ev.evolve(full_req);

  pb::EvolveRequest los_req;
  los_req.k = k;
  los_req.lmax_photon = 40;
  los_req.sample_taus = w.taus;
  const auto los_mode = ev.evolve(los_req);
  const auto f_los = pb::project_source_table(
                         pb::build_source_table(w.bg, w.rec, los_mode), 220)
                         .f_gamma;

  // Compare where Theta_l is not near a zero crossing.
  int checked = 0;
  for (std::size_t l = 40; l <= 220; l += 20) {
    const double a = full.f_gamma[l], b = f_los[l];
    if (std::abs(a) < 0.3 * 2e-2) continue;  // skip small amplitudes
    EXPECT_NEAR(b / a, 1.0, 0.08) << "l=" << l;
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

TEST(LineOfSight, ShortHierarchyIsMuchCheaper) {
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  const double k = 0.05;
  pb::EvolveRequest full_req;
  full_req.k = k;
  const auto full = ev.evolve(full_req);
  pb::EvolveRequest los_req;
  los_req.k = k;
  los_req.lmax_photon = 40;
  los_req.sample_taus = w.taus;
  const auto los_mode = ev.evolve(los_req);
  // The RHS is ~ (k tau0 / 40)x smaller; require at least 3x fewer flops.
  EXPECT_LT(static_cast<double>(los_mode.flops),
            static_cast<double>(full.flops) / 3.0);
}

TEST(LineOfSight, RequiresSources) {
  const auto& w = world();
  pb::ModeResult empty;
  empty.k = 0.01;
  empty.tau_end = w.bg.conformal_age();
  EXPECT_THROW(pb::build_source_table(w.bg, w.rec, empty),
               plinger::InvalidArgument);
}

namespace {
/// The thrown message must name the offending field — these errors
/// surface through run-config validation, where "los: something wrong"
/// without the field name is useless.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const plinger::InvalidArgument& e) {
    return e.what();
  }
  return {};
}
}  // namespace

TEST(LineOfSightOptions, ValidateNamesTheOffendingField) {
  pb::LosOptions o;

  o.lmax_evolve = pb::kLosMinLmaxEvolve - 1;
  EXPECT_NE(thrown_message([&] { pb::validate_los_options(o); })
                .find("lmax_evolve"),
            std::string::npos);

  o = pb::LosOptions{};
  o.n_rec_samples = 1;  // a one-point "window" is degenerate
  EXPECT_NE(thrown_message([&] { pb::validate_los_options(o); })
                .find("n_rec_samples"),
            std::string::npos);

  o = pb::LosOptions{};
  o.n_late_samples = 0;  // no ISW window at all
  EXPECT_NE(thrown_message([&] { pb::validate_los_options(o); })
                .find("n_late_samples"),
            std::string::npos);

  o = pb::LosOptions{};
  o.rec_width_sigmas = 0.0;  // collapsed visibility window
  EXPECT_NE(thrown_message([&] { pb::validate_los_options(o); })
                .find("rec_width_sigmas"),
            std::string::npos);
}

TEST(LineOfSightOptions, SampleTausValidateBeforeSampling) {
  // A degenerate window must be rejected up front, not turned into an
  // empty or non-monotone tau list that NaNs the projection later.
  const auto& w = world();
  pb::LosOptions o;
  o.n_rec_samples = 0;
  EXPECT_THROW(pb::los_sample_taus(w.bg, w.rec, o),
               plinger::InvalidArgument);
  o = pb::LosOptions{};
  o.rec_width_sigmas = -1.0;
  EXPECT_THROW(pb::los_sample_taus(w.bg, w.rec, o),
               plinger::InvalidArgument);
}

TEST(LineOfSightOptions, AccuracyTiersAreOrderedAndValid) {
  const auto draft = pb::los_options_for_accuracy("draft");
  const auto standard = pb::los_options_for_accuracy("standard");
  const auto high = pb::los_options_for_accuracy("high");
  EXPECT_EQ(standard, pb::LosOptions{});  // "standard" IS the default
  EXPECT_LT(draft.lmax_evolve, standard.lmax_evolve);
  EXPECT_LT(standard.lmax_evolve, high.lmax_evolve);
  EXPECT_LT(draft.n_rec_samples, standard.n_rec_samples);
  EXPECT_LT(standard.n_rec_samples, high.n_rec_samples);
  // Every named tier passes its own validation.
  EXPECT_NO_THROW(pb::validate_los_options(draft));
  EXPECT_NO_THROW(pb::validate_los_options(high));
  EXPECT_THROW(pb::los_options_for_accuracy("ultra"),
               plinger::InvalidArgument);
}

TEST(LineOfSight, TooFewSourceSamplesErrorsCleanly) {
  // A mode evolved with a sample list that mostly fell outside its
  // integration window carries a handful of samples — not enough to
  // resolve the visibility peak.  Building its source table must say
  // so, not quietly integrate garbage.
  const auto& w = world();
  pb::ModeResult mode;
  mode.k = 0.01;
  mode.tau_end = w.bg.conformal_age();
  mode.samples.resize(8);
  EXPECT_THROW(pb::build_source_table(w.bg, w.rec, mode),
               plinger::InvalidArgument);
}

TEST(BesselTableTest, RejectsLAboveTableRange) {
  const pb::BesselTable table(12, 40.0);
  EXPECT_EQ(table.l_max(), 12u);
  std::vector<double> jl(15);  // l = 14 > l_max = 12
  const std::string msg =
      thrown_message([&] { table.eval(1.0, std::span<double>(jl)); });
  EXPECT_NE(msg.find("above the Bessel table range"), std::string::npos);
}

TEST(BesselTableTest, RejectsXOutsideTableRange) {
  const pb::BesselTable table(12, 40.0);
  std::vector<double> jl(13);
  EXPECT_THROW(table.eval(-0.5, std::span<double>(jl)),
               plinger::InvalidArgument);
  EXPECT_THROW(table.eval(40.5, std::span<double>(jl)),
               plinger::InvalidArgument);
  EXPECT_NO_THROW(table.eval(0.0, std::span<double>(jl)));
  EXPECT_NO_THROW(table.eval(40.0, std::span<double>(jl)));
}

TEST(BesselTableTest, ProjectionRejectsLmaxAboveTable) {
  // The projection needs l_max + 1 tabled multipoles (the j_l'
  // recurrence reads one l past the request): a table carrying l <= 20
  // projects l_max = 19 and refuses l_max = 20, naming its range.
  const auto& w = world();
  pb::ModeEvolver ev(w.bg, w.rec, w.cfg);
  pb::EvolveRequest req;
  req.k = 0.02;
  req.lmax_photon = 40;
  req.sample_taus = w.taus;
  const auto mode = ev.evolve(req);
  const auto src = pb::build_source_table(w.bg, w.rec, mode);
  const pb::BesselTable table(20, mode.k * mode.tau_end);
  EXPECT_NO_THROW((void)pb::project_source_table(src, 19, table));
  const std::string msg = thrown_message(
      [&] { (void)pb::project_source_table(src, 20, table); });
  EXPECT_NE(msg.find("above the Bessel table range"), std::string::npos);
}

TEST(BesselTableTest, RefusesASizeItCannotHold) {
  // A non-finite x_max, a node count past size_t, or nodes x (l_max + 1)
  // past size_t is refused by name before anything is allocated.
  const double inf = std::numeric_limits<double>::infinity();
  for (double x_max : {inf, 1e300}) {
    const std::string msg =
        thrown_message([&] { const pb::BesselTable t(401, x_max); });
    EXPECT_NE(msg.find("x_max"), std::string::npos) << x_max;
  }
  // 8e15 + 2 nodes fit in size_t; times 1e5 multipoles they do not.
  EXPECT_NE(thrown_message([] { const pb::BesselTable t(99999, 1e15); })
                .find("x_max"),
            std::string::npos);
  EXPECT_THROW(pb::BesselTable(20, std::nan("")), plinger::InvalidArgument);
  EXPECT_THROW(pb::BesselTable(20, 10.0, 0.0), plinger::InvalidArgument);
}

TEST(BesselTableTest, RowsStopWhereJlHasNotTurnedOn) {
  // Below x ~ l, j_l and j_l' are under kBesselCut: eval interpolates
  // only the rows' leading entries, says how many, and zeroes the rest;
  // past the turn-on every l is tabled.
  const pb::BesselTable table(200, 300.0);
  std::vector<double> jl(201, -1.0), ref(202);
  for (double x : {0.0, 0.06, 2.5, 40.3, 100.7}) {
    const std::size_t n = table.eval(x, std::span<double>(jl));
    ASSERT_GE(n, 2u) << x;
    ASSERT_LT(n, jl.size()) << x;
    plinger::math::sph_bessel_j_array(x, std::span<double>(ref));
    // The first dropped l is far below the cut (the row stops one past
    // its last entry at or above it, at either node).
    EXPECT_LT(std::abs(ref[n]), pb::kBesselCut) << x;
    for (std::size_t l = n; l < jl.size(); ++l) {
      EXPECT_EQ(jl[l], 0.0) << "l=" << l << " x=" << x;
    }
  }
  EXPECT_EQ(table.eval(299.0, std::span<double>(jl)), jl.size());
  // Row lengths never shrink with x.
  std::size_t last = 0;
  for (double x = 0.0; x <= 300.0; x += 0.37) {
    const std::size_t n = table.eval(x, std::span<double>(jl));
    EXPECT_GE(n, last) << x;
    last = n;
  }
}

TEST(BesselTableTest, InterpolatesBesselToTabulatedAccuracy) {
  // Off-node evaluation must hold the ~1e-6 Hermite accuracy the
  // projection budget assumes.
  const pb::BesselTable table(40, 60.0);
  std::vector<double> jl(41), ref(42);
  for (double x : {0.03, 1.7, 13.41, 29.993, 59.99}) {
    table.eval(x, std::span<double>(jl));
    plinger::math::sph_bessel_j_array(x, std::span<double>(ref));
    for (std::size_t l = 0; l <= 40; ++l) {
      EXPECT_NEAR(jl[l], ref[l], 2e-6) << "l=" << l << " x=" << x;
    }
  }
}
