#include "boltzmann/los.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "math/bessel.hpp"

namespace plinger::boltzmann {

void validate_los_options(const LosOptions& opts) {
  if (opts.lmax_evolve < kLosMinLmaxEvolve) {
    std::ostringstream os;
    os << "los: lmax_evolve = " << opts.lmax_evolve << " is below the "
       << kLosMinLmaxEvolve << " moments the line-of-sight sources need";
    throw InvalidArgument(os.str());
  }
  if (opts.n_rec_samples < 2) {
    std::ostringstream os;
    os << "los: n_rec_samples = " << opts.n_rec_samples
       << " makes the recombination sample window degenerate (need >= 2)";
    throw InvalidArgument(os.str());
  }
  if (opts.n_late_samples < 1) {
    throw InvalidArgument(
        "los: n_late_samples = 0 leaves the late-time (ISW) window empty "
        "(need >= 1)");
  }
  if (!(opts.rec_width_sigmas > 0.0)) {
    std::ostringstream os;
    os << "los: rec_width_sigmas = " << opts.rec_width_sigmas
       << " collapses the visibility window (need > 0)";
    throw InvalidArgument(os.str());
  }
}

LosOptions los_options_for_accuracy(const std::string& tier) {
  if (tier == "draft") return LosOptions{24, 96, 48, 6.0};
  if (tier == "standard") return LosOptions{};
  if (tier == "high") return LosOptions{60, 240, 120, 8.0};
  throw InvalidArgument("los_accuracy: '" + tier +
                        "' is not one of {draft, standard, high}");
}

std::vector<double> los_sample_taus(const cosmo::Background& bg,
                                    const cosmo::Recombination& rec,
                                    const LosOptions& opts) {
  validate_los_options(opts);
  const double tau_star = rec.tau_star();
  const double tau0 = bg.conformal_age();

  // Estimate the visibility width from its second moment on a coarse
  // scan around the peak.
  double norm = 0.0, var = 0.0;
  const int n_scan = 400;
  const double lo = 0.3 * tau_star, hi = std::min(3.0 * tau_star, tau0);
  std::size_t hint = 0;  // tau ascends: the hinted lookup stays O(1)
  for (int i = 0; i < n_scan; ++i) {
    const double t = lo + (hi - lo) * (i + 0.5) / n_scan;
    const double g = rec.visibility(t, hint);
    norm += g;
    var += g * (t - tau_star) * (t - tau_star);
  }
  const double sigma = std::sqrt(var / norm);

  const double w = opts.rec_width_sigmas * sigma;
  const double t_lo = std::max(0.05 * tau_star, tau_star - w);
  const double t_hi = std::min(tau_star + w, 0.99 * tau0);

  std::vector<double> taus;
  taus.reserve(opts.n_rec_samples + opts.n_late_samples);
  for (std::size_t i = 0; i < opts.n_rec_samples; ++i) {
    taus.push_back(t_lo + (t_hi - t_lo) * static_cast<double>(i) /
                              static_cast<double>(opts.n_rec_samples - 1));
  }
  // Late-time (ISW) samples up to just short of today.
  const double late_end = 0.998 * tau0;
  for (std::size_t i = 1; i <= opts.n_late_samples; ++i) {
    taus.push_back(t_hi + (late_end - t_hi) * static_cast<double>(i) /
                              static_cast<double>(opts.n_late_samples));
  }
  return taus;
}

BesselTable::BesselTable(std::size_t l_max, double x_max, double dx)
    : l_max_(l_max), x_max_(x_max), dx_(dx) {
  PLINGER_REQUIRE(x_max > 0.0, "BesselTable: x_max must be positive");
  PLINGER_REQUIRE(dx > 0.0, "BesselTable: dx must be positive");
  // One node past x_max so eval() always has a bracketing interval.
  n_nodes_ = static_cast<std::size_t>(std::ceil(x_max / dx)) + 2;
  const std::size_t width = l_max_ + 1;
  j_.assign(n_nodes_ * width, 0.0);
  jp_.assign(n_nodes_ * width, 0.0);

  // Per node: j_l from the backward-stable evaluator (one extra l so the
  // derivative recurrence j_l' = j_{l-1} - (l+1)/x j_l closes), then the
  // exact derivative — it is what makes the Hermite interpolant O(dx^4).
  std::vector<double> jl(width + 1, 0.0);
  for (std::size_t i = 0; i < n_nodes_; ++i) {
    const double x = static_cast<double>(i) * dx_;
    double* jrow = j_.data() + i * width;
    double* jprow = jp_.data() + i * width;
    if (x < 1e-12) {
      jrow[0] = 1.0;  // j_0(0) = 1, all higher l vanish
      if (l_max_ >= 1) jprow[1] = 1.0 / 3.0;  // j_1'(0); j_0'(0) = 0
      continue;
    }
    math::sph_bessel_j_array(x, jl);
    for (std::size_t l = 0; l <= l_max_; ++l) {
      jrow[l] = jl[l];
      jprow[l] = (l == 0) ? -jl[1]
                          : jl[l - 1] -
                                (static_cast<double>(l) + 1.0) / x * jl[l];
    }
  }
}

void BesselTable::eval(double x, std::span<double> jl) const {
  PLINGER_REQUIRE(!jl.empty(), "BesselTable::eval: empty output span");
  if (jl.size() - 1 > l_max_) {
    std::ostringstream os;
    os << "BesselTable::eval: l = " << jl.size() - 1
       << " is above the Bessel table range (l_max = " << l_max_ << ")";
    throw InvalidArgument(os.str());
  }
  if (!(x >= 0.0) || x > x_max_) {
    std::ostringstream os;
    os << "BesselTable::eval: x = " << x
       << " is outside the Bessel table range [0, " << x_max_ << "]";
    throw InvalidArgument(os.str());
  }
  std::size_t i = static_cast<std::size_t>(x / dx_);
  i = std::min(i, n_nodes_ - 2);
  const double t = x / dx_ - static_cast<double>(i);
  // Cubic Hermite basis on [x_i, x_{i+1}].
  const double t2 = t * t, t3 = t2 * t;
  const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
  const double h10 = t3 - 2.0 * t2 + t;
  const double h01 = -2.0 * t3 + 3.0 * t2;
  const double h11 = t3 - t2;
  const std::size_t width = l_max_ + 1;
  const double* j0 = j_.data() + i * width;
  const double* j1 = j0 + width;
  const double* p0 = jp_.data() + i * width;
  const double* p1 = p0 + width;
  for (std::size_t l = 0; l < jl.size(); ++l) {
    jl[l] = h00 * j0[l] + h01 * j1[l] +
            dx_ * (h10 * p0[l] + h11 * p1[l]);
  }
}

}  // namespace plinger::boltzmann
