#include "boltzmann/source_table.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "math/bessel.hpp"
#include "math/spline.hpp"

namespace plinger::boltzmann {

SourceTable build_source_table(const cosmo::Background& bg,
                               const cosmo::Recombination& rec,
                               const ModeResult& mode) {
  const auto& samples = mode.samples;
  PLINGER_REQUIRE(samples.size() >= 16,
                  "build_source_table: too few source samples");
  const double k = mode.k;

  // Source terms per sample (conformal Newtonian gauge).
  const std::size_t n = samples.size();
  SourceTable src;
  src.k = k;
  src.tau0 = mode.tau_end;
  src.tau.resize(n);
  src.s_t0.resize(n);
  src.s_t1.resize(n);
  src.s_t2.resize(n);
  src.s_e.resize(n);
  std::vector<double> phipsi(n), ekappa(n);
  std::size_t hint = 0;  // samples ascend in tau; shared kappa-spline hint
  for (std::size_t j = 0; j < n; ++j) {
    const TransferSample& s = samples[j];
    src.tau[j] = s.tau;
    const double adotoa = bg.adotoa(s.a);
    const double theta0_n = 0.25 * (s.delta_g - 4.0 * adotoa * s.alpha);
    const double vb_n = (s.theta_b + s.alpha * k * k) / k;
    const double g = rec.visibility(s.tau, hint);
    src.s_t0[j] = g * (theta0_n + s.psi);
    src.s_t1[j] = g * vb_n;
    src.s_t2[j] = g * s.pi_pol / 16.0;
    src.s_e[j] = (3.0 / 16.0) * g * s.pi_pol;
    phipsi[j] = s.phi + s.psi;
    ekappa[j] = std::exp(-std::min(680.0, rec.kappa(s.tau, hint)));
  }
  // ISW: e^{-kappa} d(phi+psi)/dtau via a spline derivative.
  const plinger::math::CubicSpline pp(src.tau, phipsi);
  for (std::size_t j = 0; j < n; ++j) {
    src.s_t0[j] += ekappa[j] * pp.derivative(src.tau[j]);
  }
  return src;
}

namespace {

/// Kernel-resolution target: the integration grid is refined until
/// k * dtau <= kProjectionDx, so the j_l(k(tau0 - tau)) oscillation is
/// always resolved regardless of how coarsely the sources were sampled.
/// The visibility tail between recombination and today is where this
/// matters: g stays small but Pi free-streams and grows, and at the
/// default late-window spacing the kernel aliases badly (a ~10% E-mode
/// error at l ~ k tau0 before refinement, <1% after).
constexpr double kProjectionDx = 0.25;

/// One refined point's trapezoid term, folded into l = 0..n_l-1 of both
/// towers (x > 1e-6, so the kernels need no series limits).  l + 1 and
/// l (l + 1) come from per-l rows of exact doubles, so the l loop is
/// one vector stream and each l keeps its scalar sequence of IEEE
/// operations.
PLINGER_HOT void fold_point(double x, double w, double st0, double st1,
                            double st2, double se, std::size_t n_l,
                            const double* __restrict__ jl,
                            const double* __restrict__ lp1,
                            const double* __restrict__ llp1,
                            double* __restrict__ f, double* __restrict__ g) {
  const double xx = x * x, two_x = 2.0 / x;
  // l = 0: j_0' = -j_1.
  {
    const double jlp = -jl[1];
    const double ek = llp1[0] / xx * jl[0] - two_x * jlp;
    f[0] += w * (st0 * jl[0] + st1 * jlp + st2 * (3.0 * ek - 2.0 * jl[0]));
    g[0] += w * se * ek;
  }
  for (std::size_t l = 1; l < n_l; ++l) {
    // j_l'(x) = j_{l-1}(x) - (l+1)/x j_l(x).
    const double jlp = jl[l - 1] - lp1[l] / x * jl[l];
    // E-mode kernel Ek = j_l + j_l'' = l(l+1)/x^2 j_l - (2/x) j_l'
    // (from the Bessel ODE).
    const double ek = llp1[l] / xx * jl[l] - two_x * jlp;
    f[l] += w * (st0 * jl[l] + st1 * jlp + st2 * (3.0 * ek - 2.0 * jl[l]));
    g[l] += w * se * ek;
  }
}

/// Trapezoid projection of the sources onto the j_l / j_l' / Ek_l
/// kernels.  The sampled columns are carried onto a kernel-resolving
/// fine grid by cubic splines (the sources are smooth on the sampling
/// scale; the kernel is not).  The Bessel evaluator is the only
/// difference between the reference path (sph_bessel_j_array) and the
/// fast path (BesselTable): fill_jl(x, jl) fills jl and returns how many
/// leading entries can be nonzero, and each point folds only those.
template <typename FillJl>
ProjectedMode project(const SourceTable& src, std::size_t l_max,
                      FillJl&& fill_jl) {
  const double k = src.k;
  const double tau0 = src.tau0;

  // Refined grid: every sample is a knot, and each interval is split
  // until the kernel phase advance per step is below kProjectionDx.
  // Low-k modes subdivide nothing and integrate the samples directly.
  std::vector<double> tau, st0_c, st1_c, st2_c, se_c;
  {
    const math::CubicSpline sp0(src.tau, src.s_t0);
    const math::CubicSpline sp1(src.tau, src.s_t1);
    const math::CubicSpline sp2(src.tau, src.s_t2);
    const math::CubicSpline spe(src.tau, src.s_e);
    std::size_t hint = 0;
    for (std::size_t j = 0; j + 1 < src.tau.size(); ++j) {
      const double t0 = src.tau[j], t1 = src.tau[j + 1];
      const auto m = static_cast<std::size_t>(
          std::max(1.0, std::ceil(k * (t1 - t0) / kProjectionDx)));
      for (std::size_t i = 0; i < m; ++i) {
        const double t =
            (i == 0) ? t0
                     : t0 + (t1 - t0) * static_cast<double>(i) /
                                static_cast<double>(m);
        tau.push_back(t);
        if (i == 0) {
          // Knots keep their sampled values exactly.
          st0_c.push_back(src.s_t0[j]);
          st1_c.push_back(src.s_t1[j]);
          st2_c.push_back(src.s_t2[j]);
          se_c.push_back(src.s_e[j]);
        } else {
          // All four splines share the knot vector, so one hint serves.
          st0_c.push_back(sp0(t, hint));
          st1_c.push_back(sp1(t, hint));
          st2_c.push_back(sp2(t, hint));
          se_c.push_back(spe(t, hint));
        }
      }
    }
    tau.push_back(src.tau.back());
    st0_c.push_back(src.s_t0.back());
    st1_c.push_back(src.s_t1.back());
    st2_c.push_back(src.s_t2.back());
    se_c.push_back(src.s_e.back());
  }

  const std::size_t n = tau.size();
  ProjectedMode out;
  out.f_gamma.assign(l_max + 1, 0.0);
  out.g_gamma.assign(l_max + 1, 0.0);
  std::vector<double> lp1(l_max + 1), llp1(l_max + 1);
  for (std::size_t l = 0; l <= l_max; ++l) {
    const double dl = static_cast<double>(l);
    lp1[l] = dl + 1.0;
    llp1[l] = dl * (dl + 1.0);
  }
  // One l past the tower: the direct path's Miller start, and so its
  // bits, depend on the buffer width.
  std::vector<double> jl(l_max + 2, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double w =
        (j == 0)       ? 0.5 * (tau[1] - tau[0])
        : (j == n - 1) ? 0.5 * (tau[n - 1] - tau[n - 2])
                       : 0.5 * (tau[j + 1] - tau[j - 1]);
    const double x = k * (tau0 - tau[j]);
    const std::size_t n_l =
        std::min(l_max + 1, fill_jl(x, std::span<double>(jl)));
    const double st0 = st0_c[j], st1 = st1_c[j];
    const double st2 = st2_c[j], se = se_c[j];
    if (x > 1e-6) {
      fold_point(x, w, st0, st1, st2, se, n_l, jl.data(), lp1.data(),
                 llp1.data(), out.f_gamma.data(), out.g_gamma.data());
      continue;
    }
    // The x -> 0 end of the window: the kernels' series limits.
    for (std::size_t l = 0; l < n_l; ++l) {
      double jlp;
      if (l == 0) {
        jlp = -jl[1];
      } else if (x > 1e-12) {
        jlp = jl[l - 1] - lp1[l] / x * jl[l];
      } else {
        jlp = (l == 1) ? 1.0 / 3.0 : 0.0;
      }
      // Ek_0(0) = 2/3, Ek_2(0) = 2/15, all other l vanish.
      const double ek = (l == 0) ? 2.0 / 3.0 : (l == 2) ? 2.0 / 15.0 : 0.0;
      out.f_gamma[l] +=
          w * (st0 * jl[l] + st1 * jlp + st2 * (3.0 * ek - 2.0 * jl[l]));
      out.g_gamma[l] += w * se * ek;
    }
  }
  // Back to the MB95 moment convention: F_l = 4 Theta_l, and the same
  // factor turns (3/16) g Pi Ek into G_l = (3/4) int g Pi Ek.
  for (double& t : out.f_gamma) t *= 4.0;
  for (double& t : out.g_gamma) t *= 4.0;
  return out;
}

}  // namespace

ProjectedMode project_source_table(const SourceTable& src,
                                   std::size_t l_max) {
  return project(src, l_max, [](double x, std::span<double> jl) {
    math::sph_bessel_j_array(x, jl);
    return jl.size();
  });
}

ProjectedMode project_source_table(const SourceTable& src,
                                   std::size_t l_max,
                                   const BesselTable& table) {
  // project() reads l <= l_max only, but its Bessel buffer spans
  // l <= l_max + 1 (node values depend on the evaluator's width), so the
  // table must carry that width too.
  if (l_max + 1 > table.l_max()) {
    std::ostringstream os;
    os << "project_source_table: l_max = " << l_max
       << " is above the Bessel table range (table carries l <= "
       << table.l_max() << " and the projection needs l_max + 1)";
    throw InvalidArgument(os.str());
  }
  return project(src, l_max, [&table](double x, std::span<double> jl) {
    return table.eval(x, jl);
  });
}

}  // namespace plinger::boltzmann
