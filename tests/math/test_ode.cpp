#include "math/ode.hpp"

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "common/error.hpp"

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
