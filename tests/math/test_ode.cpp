#include "math/ode.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "math/rng.hpp"

namespace pm = plinger::math;

namespace {

/// y' = -y, y(0) = 1  ->  y(t) = e^{-t}.
void exp_decay(double, std::span<const double> y, std::span<double> dy) {
  dy[0] = -y[0];
}

/// Harmonic oscillator y'' = -w^2 y as a first-order system.
struct Oscillator {
  double w;
  void operator()(double, std::span<const double> y,
                  std::span<double> dy) const {
    dy[0] = y[1];
    dy[1] = -w * w * y[0];
  }
};

}  // namespace

TEST(Dverk, ExponentialDecayAccuracy) {
  pm::Dverk ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  opts.rtol = 1e-10;
  opts.atol = 1e-14;
  ode.integrate(exp_decay, 0.0, 5.0, y, opts);
  EXPECT_NEAR(y[0], std::exp(-5.0), 1e-9);
}

TEST(Dverk, BackwardIntegration) {
  pm::Dverk ode;
  std::vector<double> y = {std::exp(-5.0)};
  pm::OdeOptions opts;
  opts.rtol = 1e-10;
  opts.atol = 1e-14;
  ode.integrate(exp_decay, 5.0, 0.0, y, opts);
  EXPECT_NEAR(y[0], 1.0, 1e-8);
}

TEST(Dverk, OscillatorLongIntegration) {
  pm::Dverk ode;
  Oscillator osc{2.0};
  std::vector<double> y = {1.0, 0.0};
  pm::OdeOptions opts;
  opts.rtol = 1e-9;
  opts.atol = 1e-12;
  const double t1 = 20.0 * std::numbers::pi;  // 20 half-periods of w=2
  ode.integrate(osc, 0.0, t1, y, opts);
  EXPECT_NEAR(y[0], std::cos(2.0 * t1), 1e-6);
  EXPECT_NEAR(y[1], -2.0 * std::sin(2.0 * t1), 2e-6);
}

/// The propagated solution must converge at ~6th order: halving the
/// tolerance class (fixed-step emulation via h_max) reduces error ~2^6.
TEST(Dverk, SixthOrderConvergence) {
  Oscillator osc{1.0};
  auto run_err = [&](double h) {
    pm::Dverk ode;
    std::vector<double> y = {1.0, 0.0};
    pm::OdeOptions opts;
    // Effectively fixed-step: tolerances loose, step capped at h.
    opts.rtol = 1.0;
    opts.atol = 1.0;
    opts.h_init = h;
    opts.h_max = h;
    ode.integrate(osc, 0.0, 1.0, y, opts);
    return std::abs(y[0] - std::cos(1.0));
  };
  const double e1 = run_err(0.05);
  const double e2 = run_err(0.025);
  const double order = std::log2(e1 / e2);
  EXPECT_GT(order, 5.3) << "e1=" << e1 << " e2=" << e2;
  EXPECT_LT(order, 7.5);
}

TEST(Dverk, ToleranceControlsError) {
  Oscillator osc{1.0};
  auto run_err = [&](double rtol) {
    pm::Dverk ode;
    std::vector<double> y = {1.0, 0.0};
    pm::OdeOptions opts;
    opts.rtol = rtol;
    opts.atol = 1e-14;
    ode.integrate(osc, 0.0, 10.0, y, opts);
    return std::abs(y[0] - std::cos(10.0));
  };
  EXPECT_LT(run_err(1e-10), run_err(1e-4));
  EXPECT_LT(run_err(1e-8), 1e-5);
}

TEST(Dverk, ObserverSeesMonotonicTimes) {
  pm::Dverk ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  double last = -1.0;
  int count = 0;
  ode.integrate(exp_decay, 0.0, 1.0, y, opts,
                [&](double t, std::span<const double>) {
                  EXPECT_GT(t, last);
                  last = t;
                  ++count;
                });
  EXPECT_GT(count, 2);
  EXPECT_DOUBLE_EQ(last, 1.0);
}

TEST(Dverk, StatsAreConsistent) {
  pm::Dverk ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  const auto stats = ode.integrate(exp_decay, 0.0, 1.0, y, opts);
  EXPECT_GT(stats.n_accepted, 0);
  EXPECT_EQ(stats.n_rhs, 8 * (stats.n_accepted + stats.n_rejected));
}

TEST(Dverk, ThrowsOnEmptyInterval) {
  pm::Dverk ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  EXPECT_THROW(ode.integrate(exp_decay, 1.0, 1.0, y, opts),
               plinger::InvalidArgument);
}

TEST(Dverk, ThrowsOnMaxSteps) {
  pm::Dverk ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  opts.max_steps = 3;
  opts.h_init = 1e-9;
  opts.h_max = 1e-9;
  EXPECT_THROW(ode.integrate(exp_decay, 0.0, 1.0, y, opts),
               plinger::NumericalFailure);
}

TEST(Dverk, StiffProblemStaysStable) {
  // Moderately stiff decay: lambda = -200 over [0, 1].  The controller
  // must keep the solution bounded and accurate at the end.
  pm::Dverk ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  opts.rtol = 1e-6;
  opts.atol = 1e-12;
  ode.integrate(
      [](double, std::span<const double> yy, std::span<double> dy) {
        dy[0] = -200.0 * yy[0];
      },
      0.0, 1.0, y, opts);
  EXPECT_NEAR(y[0], std::exp(-200.0), 1e-10);
}

TEST(Dverk, VernerTableauRowSumsMatchNodes) {
  using T = pm::VernerDverkTableau;
  for (int i = 0; i < T::stages; ++i) {
    double sum = 0.0;
    for (int j = 0; j < i; ++j) sum += T::a[i][j];
    EXPECT_NEAR(sum, T::c[i], 1e-14) << "row " << i;
  }
  double bsum = 0.0, bhatsum = 0.0;
  for (int i = 0; i < T::stages; ++i) {
    bsum += T::b[i];
    bhatsum += T::bhat[i];
  }
  EXPECT_NEAR(bsum, 1.0, 1e-14);
  EXPECT_NEAR(bhatsum, 1.0, 1e-14);
}

TEST(Dop853, TableauRowSumsMatchNodes) {
  using T = pm::Dop853Tableau;
  for (int i = 0; i < T::stages; ++i) {
    double sum = 0.0;
    for (int j = 0; j < i; ++j) sum += T::a[i][j];
    EXPECT_NEAR(sum, T::c[i], 1e-13) << "row " << i;
  }
  // Dense-output stage rows span k1..k16; their sums must hit the
  // dense nodes c14..c16.
  for (int d = 0; d < T::dense_stages; ++d) {
    double sum = 0.0;
    for (int j = 0; j < 16; ++j) sum += T::ad[d][j];
    EXPECT_NEAR(sum, T::cd[d], 1e-12) << "dense row " << d;
  }
  double bsum = 0.0, ersum = 0.0;
  for (int i = 0; i < T::stages; ++i) {
    bsum += T::b[i];
    ersum += T::er[i];
  }
  EXPECT_NEAR(bsum, 1.0, 1e-14);
  EXPECT_NEAR(T::bhh1 + T::bhh2 + T::bhh3, 1.0, 1e-14);
  // The 5th-order error weights are a difference of two consistent
  // quadratures, so they sum to zero.
  EXPECT_NEAR(ersum, 0.0, 1e-14);
}

TEST(Dop853, ExponentialDecayAccuracy) {
  pm::Dop853 ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  opts.rtol = 1e-10;
  opts.atol = 1e-14;
  ode.integrate(exp_decay, 0.0, 5.0, y, opts);
  EXPECT_NEAR(y[0], std::exp(-5.0), 1e-9);
}

TEST(Dop853, BackwardIntegration) {
  pm::Dop853 ode;
  std::vector<double> y = {std::exp(-5.0)};
  pm::OdeOptions opts;
  opts.rtol = 1e-10;
  opts.atol = 1e-14;
  ode.integrate(exp_decay, 5.0, 0.0, y, opts);
  EXPECT_NEAR(y[0], 1.0, 1e-8);
}

/// Fixed-step emulation (loose tolerances, h capped) must show ~8th
/// order convergence of the propagated solution.
TEST(Dop853, EighthOrderConvergence) {
  Oscillator osc{1.0};
  auto run_err = [&](double h) {
    pm::Dop853 ode;
    std::vector<double> y = {1.0, 0.0};
    pm::OdeOptions opts;
    opts.rtol = 1.0;
    opts.atol = 1.0;
    opts.h_init = h;
    opts.h_max = h;
    ode.integrate(osc, 0.0, 1.0, y, opts);
    return std::abs(y[0] - std::cos(1.0));
  };
  const double e1 = run_err(0.25);
  const double e2 = run_err(0.125);
  const double order = std::log2(e1 / e2);
  EXPECT_GT(order, 6.5) << "e1=" << e1 << " e2=" << e2;
  EXPECT_LT(order, 9.5);
}

TEST(Dop853, ToleranceControlsError) {
  Oscillator osc{1.0};
  auto run_err = [&](double rtol) {
    pm::Dop853 ode;
    std::vector<double> y = {1.0, 0.0};
    pm::OdeOptions opts;
    opts.rtol = rtol;
    opts.atol = 1e-14;
    ode.integrate(osc, 0.0, 10.0, y, opts);
    return std::abs(y[0] - std::cos(10.0));
  };
  EXPECT_LT(run_err(1e-10), run_err(1e-4));
  EXPECT_LT(run_err(1e-8), 1e-5);
}

TEST(Dop853, ObserverSeesMonotonicTimes) {
  pm::Dop853 ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  double last = -1.0;
  int count = 0;
  ode.integrate(exp_decay, 0.0, 1.0, y, opts,
                [&](double t, std::span<const double>) {
                  EXPECT_GT(t, last);
                  last = t;
                  ++count;
                });
  EXPECT_GT(count, 2);
  EXPECT_DOUBLE_EQ(last, 1.0);
}

/// FSAL accounting: one initial eval, 11 stage evals per attempt, one
/// step-end eval per accepted step (no dense sampling here).
TEST(Dop853, StatsCountEveryEvaluation) {
  pm::Dop853 ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  const auto stats = ode.integrate(exp_decay, 0.0, 1.0, y, opts);
  EXPECT_GT(stats.n_accepted, 0);
  EXPECT_EQ(stats.n_rhs, 1 + 12 * stats.n_accepted + 11 * stats.n_rejected);
}

TEST(Dop853, FewerRhsEvalsThanDverkAtTightTolerance) {
  Oscillator osc{2.0};
  pm::OdeOptions opts;
  opts.rtol = 1e-9;
  opts.atol = 1e-12;
  const double t1 = 20.0 * std::numbers::pi;
  pm::Dverk dverk;
  std::vector<double> y1 = {1.0, 0.0};
  const auto s1 = dverk.integrate(osc, 0.0, t1, y1, opts);
  pm::Dop853 dop;
  std::vector<double> y2 = {1.0, 0.0};
  const auto s2 = dop.integrate(osc, 0.0, t1, y2, opts);
  EXPECT_LT(s2.n_rhs, s1.n_rhs)
      << "dverk=" << s1.n_rhs << " dop853=" << s2.n_rhs;
  EXPECT_NEAR(y2[0], std::cos(2.0 * t1), 1e-6);
}

/// Dense output at interior times must track the true solution to the
/// integration tolerance (the interpolant is 7th order, one below the
/// step, so it does not degrade the sampled accuracy).
TEST(Dop853, DenseOutputTracksSolution) {
  pm::Dop853 ode;
  Oscillator osc{1.0};
  std::vector<double> y = {1.0, 0.0};
  pm::OdeOptions opts;
  opts.rtol = 1e-10;
  opts.atol = 1e-13;
  std::vector<double> ts;
  for (int i = 0; i <= 200; ++i) ts.push_back(10.0 * i / 200.0);
  std::size_t seen = 0;
  double worst = 0.0;
  ode.integrate_dense(osc, 0.0, 10.0, y, opts, ts,
                      [&](double t, std::span<const double> ys) {
                        EXPECT_DOUBLE_EQ(t, ts[seen]);
                        worst = std::max(worst, std::abs(ys[0] - std::cos(t)));
                        ++seen;
                      });
  EXPECT_EQ(seen, ts.size());
  EXPECT_LT(worst, 1e-8);
}

/// Sampling must not perturb the trajectory: the step sequence and the
/// final state are bitwise-identical with and without a sample grid.
TEST(Dop853, DenseSamplingDoesNotChangeTrajectory) {
  Oscillator osc{3.0};
  pm::OdeOptions opts;
  opts.rtol = 1e-8;
  opts.atol = 1e-12;
  pm::Dop853 a;
  std::vector<double> ya = {1.0, 0.0};
  const auto sa = a.integrate(osc, 0.0, 5.0, ya, opts);
  pm::Dop853 b;
  std::vector<double> yb = {1.0, 0.0};
  std::vector<double> ts = {0.7, 1.3, 2.9, 4.1};
  const auto sb = b.integrate_dense(osc, 0.0, 5.0, yb, opts, ts,
                                    [](double, std::span<const double>) {});
  EXPECT_EQ(sa.n_accepted, sb.n_accepted);
  EXPECT_EQ(sa.n_rejected, sb.n_rejected);
  EXPECT_EQ(ya[0], yb[0]);
  EXPECT_EQ(ya[1], yb[1]);
  // Dense prep costs at most 3 evals per sampled step.
  EXPECT_LE(sb.n_rhs, sa.n_rhs + 3 * ts.size());
}

/// DVERK's sampled call is clamped: one integrate() leg per interior
/// sample time, bitwise the legs run by hand, and times at the interval
/// ends are answered from the endpoint states.
TEST(Dverk, DenseSamplesAreClampedLegs) {
  Oscillator osc{3.0};
  pm::OdeOptions opts;
  opts.rtol = 1e-8;
  opts.atol = 1e-12;
  const std::vector<double> ts = {0.0, 0.7, 2.9, 5.0};
  pm::Dverk dense;
  std::vector<double> y = {1.0, 0.0};
  std::vector<std::vector<double>> got;
  const auto s = dense.integrate_dense(
      osc, 0.0, 5.0, y, opts, ts, [&](double, std::span<const double> ys) {
        got.emplace_back(ys.begin(), ys.end());
      });

  pm::Dverk legs;
  std::vector<double> yl = {1.0, 0.0};
  std::vector<std::vector<double>> want = {yl};
  pm::OdeStats sl;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    sl += legs.integrate(osc, ts[i - 1], ts[i], yl, opts);
    want.push_back(yl);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(y, yl);
  EXPECT_EQ(s.n_accepted, sl.n_accepted);
  EXPECT_EQ(s.n_rhs, sl.n_rhs);
}

TEST(Dop853, DenseSamplesAtEndpointsUseEndpointStates) {
  pm::Dop853 ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  std::vector<double> ts = {0.0, 1.0};
  std::vector<double> got;
  ode.integrate_dense(exp_decay, 0.0, 1.0, y, opts, ts,
                      [&](double, std::span<const double> ys) {
                        got.push_back(ys[0]);
                      });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], 1.0);
  EXPECT_DOUBLE_EQ(got[1], y[0]);
}

TEST(Dop853, DenseBackwardIntegration) {
  pm::Dop853 ode;
  Oscillator osc{1.0};
  std::vector<double> y = {std::cos(10.0), -std::sin(10.0)};
  pm::OdeOptions opts;
  opts.rtol = 1e-10;
  opts.atol = 1e-13;
  std::vector<double> ts = {8.0, 5.0, 2.0};  // sorted along direction
  std::size_t seen = 0;
  ode.integrate_dense(osc, 10.0, 0.0, y, opts, ts,
                      [&](double t, std::span<const double> ys) {
                        EXPECT_NEAR(ys[0], std::cos(t), 1e-8);
                        ++seen;
                      });
  EXPECT_EQ(seen, ts.size());
  EXPECT_NEAR(y[0], 1.0, 1e-8);
}

TEST(Dop853, ThrowsOnEmptyInterval) {
  pm::Dop853 ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  EXPECT_THROW(ode.integrate(exp_decay, 1.0, 1.0, y, opts),
               plinger::InvalidArgument);
}

TEST(Dop853, ThrowsOnMaxSteps) {
  pm::Dop853 ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  opts.max_steps = 3;
  opts.h_init = 1e-9;
  opts.h_max = 1e-9;
  EXPECT_THROW(ode.integrate(exp_decay, 0.0, 1.0, y, opts),
               plinger::NumericalFailure);
}

TEST(Dop853, StiffProblemStaysStable) {
  pm::Dop853 ode;
  std::vector<double> y = {1.0};
  pm::OdeOptions opts;
  opts.rtol = 1e-6;
  opts.atol = 1e-12;
  ode.integrate(
      [](double, std::span<const double> yy, std::span<double> dy) {
        dy[0] = -200.0 * yy[0];
      },
      0.0, 1.0, y, opts);
  EXPECT_NEAR(y[0], std::exp(-200.0), 1e-10);
}

namespace {

/// A first trial step 4 ulp(t1) short of [ln 1e-3, ln 2e-3] under a
/// constant RHS lands inside the guard's floor (16 eps |t1|) of t1.  The
/// step must close the interval exactly rather than leave a remainder
/// below the floor, which no step can take ("ODE step size underflow at
/// t=-6.214608").
template <class Core>
void expect_sub_floor_landing_closes_the_interval() {
  const double t0 = std::log(1e-3), t1 = std::log(2e-3);
  const double ulp = std::abs(std::nextafter(t1, 0.0) - t1);
  pm::OdeOptions opts;
  opts.h_init = (t1 - t0) - 4.0 * ulp;
  std::vector<double> y = {1.0};
  double t_last = t0;
  Core ode;
  const pm::OdeStats stats = ode.integrate(
      [](double, std::span<const double>, std::span<double> dy) {
        dy[0] = 2.0;
      },
      t0, t1, y, opts, [&](double t, std::span<const double>) { t_last = t; });
  EXPECT_EQ(t_last, t1);
  EXPECT_EQ(stats.n_accepted, 1);
  EXPECT_EQ(stats.n_rejected, 0);
  EXPECT_NEAR(y[0], 1.0 + 2.0 * (t1 - t0), 1e-14);
}

}  // namespace

TEST(Dverk, StepWithinTheFloorOfT1ClosesTheInterval) {
  expect_sub_floor_landing_closes_the_interval<pm::Dverk>();
}

TEST(Dop853, StepWithinTheFloorOfT1ClosesTheInterval) {
  expect_sub_floor_landing_closes_the_interval<pm::Dop853>();
}

/// Parameterized sweep: integrate y' = cos(t) for several intervals and
/// tolerances; the result must track sin(t) within tolerance * margin.
class DverkSweep : public ::testing::TestWithParam<std::pair<double, double>> {
};

TEST_P(DverkSweep, TracksSine) {
  const auto [t1, rtol] = GetParam();
  pm::Dverk ode;
  std::vector<double> y = {0.0};
  pm::OdeOptions opts;
  opts.rtol = rtol;
  opts.atol = 1e-14;
  ode.integrate(
      [](double t, std::span<const double>, std::span<double> dy) {
        dy[0] = std::cos(t);
      },
      0.0, t1, y, opts);
  EXPECT_NEAR(y[0], std::sin(t1), 1e4 * rtol * std::max(1.0, t1));
}

INSTANTIATE_TEST_SUITE_P(
    IntervalsAndTolerances, DverkSweep,
    ::testing::Values(std::pair{1.0, 1e-6}, std::pair{1.0, 1e-10},
                      std::pair{10.0, 1e-6}, std::pair{10.0, 1e-10},
                      std::pair{100.0, 1e-8}, std::pair{0.1, 1e-6}));

// The stage kernel against the stage-major loops it replaced.  This
// source is compiled with the vectorizer cost model of the evolve hot
// path (tests/CMakeLists.txt), so the kernel runs as vector code with a
// scalar remainder, as in the integrators.

namespace {

using Vec = std::vector<double>;

/// The loop both cores ran before the stage kernel, kept as the oracle:
/// out = [y +] sum_{m < n_terms} (h row[m]) k[m], one pass over the
/// state per term, term 0 always, later zero coefficients skipped.
void reference_stages(Vec& out, const Vec* y, double h, const double* row,
                      int n_terms, const Vec* k) {
  const std::size_t n = out.size();
  const double c0 = h * row[0];
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = y ? (*y)[j] + c0 * k[0][j] : c0 * k[0][j];
  }
  for (int m = 1; m < n_terms; ++m) {
    if (row[m] == 0.0) continue;
    const double cm = h * row[m];
    for (std::size_t j = 0; j < n; ++j) out[j] += cm * k[m][j];
  }
}

/// Dverk's error measure: the weighted RMS of d, summed in index order.
double dverk_error(const Vec& y, const Vec& y_new, const Vec& d) {
  const pm::OdeOptions opts;
  double err_sq = 0.0;
  for (std::size_t j = 0; j < y.size(); ++j) {
    const double scale =
        opts.atol + opts.rtol * std::max(std::abs(y[j]), std::abs(y_new[j]));
    const double e = d[j] / scale;
    err_sq += e * e;
  }
  return std::sqrt(err_sq / static_cast<double>(y.size()));
}

/// Seeded values of both signs with magnitudes from 1e-12 to 1e3, one
/// in sixteen a signed zero.
Vec random_state(pm::Xoshiro256& rng, std::size_t n) {
  Vec v(n);
  for (double& x : v) {
    const std::uint64_t bits = rng.next_u64();
    x = (bits & 0xF) == 0 ? 0.0 : std::pow(10.0, -12.0 + 15.0 * rng.uniform());
    if (bits & 0x10) x = -x;
  }
  return v;
}

/// Index of the first element whose bits differ, or the size if none do.
std::size_t first_bit_mismatch(const Vec& a, const Vec& b) {
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (std::bit_cast<std::uint64_t>(a[j]) !=
        std::bit_cast<std::uint64_t>(b[j])) {
      return j;
    }
  }
  return a.size();
}

constexpr double kSteps[] = {0.0123456789, -0.0123456789, 7.31, -7.31};
constexpr double kUnscaled[] = {1.0};

}  // namespace

/// Parameter: the state size.
class StageKernel : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    pm::Xoshiro256 rng(GetParam());
    y_ = random_state(rng, n());
    for (Vec& km : k_) km = random_state(rng, n());
    // Elements that are signed zeros in y and every stage, where only
    // the sign of the zero sum tells two summation orders apart.
    for (std::size_t j = 1; j < n(); j += 8) {
      y_[j] = rng.next_u64() & 1 ? 0.0 : -0.0;
      for (Vec& km : k_) km[j] = rng.next_u64() & 1 ? 0.0 : -0.0;
    }
  }

  std::size_t n() const { return GetParam(); }

  /// stage_kernel<Row> against reference_stages over n_terms, with or
  /// without the y term, for every step in `steps`.
  template <const auto& Row>
  void check(const char* name, int n_terms, bool with_y,
             std::span<const double> steps = kSteps) {
    for (const double h : steps) {
      Vec got(n()), want(n());
      if (with_y) {
        pm::detail::stage_kernel<Row>(got, y_, h, k_.data());
      } else {
        pm::detail::stage_kernel<Row>(got, nullptr, h, k_.data());
      }
      reference_stages(want, with_y ? &y_ : nullptr, h, Row, n_terms,
                       k_.data());
      EXPECT_EQ(first_bit_mismatch(got, want), n())
          << name << ", n = " << n() << ", h = " << h;
    }
  }

  Vec y_;
  std::array<Vec, 16> k_;
};

TEST_P(StageKernel, DverkRowsMatchStageMajorLoops) {
  using T = pm::VernerDverkTableau;
  pm::detail::static_for<1, T::stages>(
      [&](auto i) { check<T::a[i]>("dverk a", i, true); });
  check<T::b>("dverk b", T::stages, true);

  // The error vector against the runtime difference b - bhat, and the
  // error value the step controller sees.
  double e_ref[T::stages];
  for (int m = 0; m < T::stages; ++m) e_ref[m] = T::b[m] - T::bhat[m];
  for (const double h : kSteps) {
    Vec y_new(n()), d(n()), y_new_ref(n()), d_ref(n());
    pm::detail::stage_kernel<T::b>(y_new, y_, h, k_.data());
    pm::detail::stage_kernel<T::e>(d, nullptr, h, k_.data());
    reference_stages(y_new_ref, &y_, h, T::b, T::stages, k_.data());
    reference_stages(d_ref, nullptr, h, e_ref, T::stages, k_.data());
    EXPECT_EQ(first_bit_mismatch(d, d_ref), n()) << "h = " << h;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dverk_error(y_, y_new, d)),
              std::bit_cast<std::uint64_t>(dverk_error(y_, y_new_ref, d_ref)))
        << "h = " << h;
  }
}

/// Dop853's er and d rows started at m = 5 before the stage kernel;
/// their entries 1..4 are zero, so the zero-skipping reference is that
/// loop.  bsum and er are unscaled sums (h = 1).
TEST_P(StageKernel, Dop853RowsMatchStageMajorLoops) {
  using T = pm::Dop853Tableau;
  pm::detail::static_for<1, T::stages>(
      [&](auto i) { check<T::a[i]>("dop853 a", i, true); });
  check<T::b>("dop853 bsum", T::stages, false, kUnscaled);
  check<pm::detail::kUnitRow>("dop853 y + h bsum", 1, true);
  check<T::er>("dop853 er", T::stages, false, kUnscaled);
  pm::detail::static_for<0, T::dense_stages>([&](auto d) {
    check<T::ad[d]>("dop853 ad", T::stages + 1 + d, true);
  });
  pm::detail::static_for<0, 4>(
      [&](auto r) { check<T::d[r]>("dop853 d", 16, false); });
}

INSTANTIATE_TEST_SUITE_P(StateSizes, StageKernel,
                         ::testing::Values(1, 2, 3, 7, 64, 2855));
