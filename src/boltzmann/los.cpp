#include "boltzmann/los.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
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

BesselTable::BesselTable(std::size_t l_max, double x_max)
    : l_max_(l_max), x_max_(x_max) {
  PLINGER_REQUIRE(x_max > 0.0, "BesselTable: x_max must be positive");
  // One node past x_max so eval() always has a bracketing interval.
  // Bytes are counted in double (exact below 2^53, far past the ceiling
  // above it), starting with the node index; the node count is cast
  // only once that fits, which also refuses a non-finite x_max.
  const std::size_t width = l_max_ + 1;
  const double cells = std::ceil(x_max / kBesselDx);
  const double ceiling = static_cast<double>(kBesselTableMaxBytes);
  double bytes = sizeof(std::size_t) * (cells + 3.0);
  const auto refuse = [&] {
    std::ostringstream os;
    os << "BesselTable: x_max = " << x_max << " at dx = " << kBesselDx
       << " with l_max = " << l_max_ << " asks for a table of at least "
       << bytes << " bytes, above the " << kBesselTableMaxBytes
       << "-byte ceiling";
    throw InvalidArgument(os.str());
  };
  if (!(bytes <= ceiling)) refuse();
  const std::size_t n_nodes = static_cast<std::size_t>(cells) + 2;

  // node(i) writes node i into buf at the full width — j_l from the
  // backward-stable evaluator, whose Miller start (and so every bit)
  // depends on the buffer width, then the exact derivative that makes
  // the Hermite interpolant O(dx^4) — and returns the row length the
  // node needs: one past its last entry at or above kBesselCut.
  std::vector<double> jl(width + 1, 0.0), buf(2 * width);
  const auto node = [&](std::size_t i) {
    const double x = static_cast<double>(i) * kBesselDx;
    double* jrow = buf.data();
    double* jprow = jrow + width;
    if (x < 1e-12) {
      std::fill(buf.begin(), buf.end(), 0.0);
      jrow[0] = 1.0;  // j_0(0) = 1, all higher l vanish
      if (l_max_ >= 1) jprow[1] = 1.0 / 3.0;  // j_1'(0); j_0'(0) = 0
    } else {
      math::sph_bessel_j_array(x, jl);
      for (std::size_t l = 0; l <= l_max_; ++l) {
        jrow[l] = jl[l];
        jprow[l] = (l == 0) ? -jl[1]
                            : jl[l - 1] -
                                  (static_cast<double>(l) + 1.0) / x * jl[l];
      }
    }
    for (std::size_t l = width; l-- > 0;) {
      if (std::abs(jrow[l]) >= kBesselCut ||
          std::abs(jprow[l]) >= kBesselCut) {
        return l + 2;
      }
    }
    return std::size_t{0};
  };

  // Two passes, so each column is one block allocated once at its exact
  // size: the first sizes the rows, the second fills them.  Row i serves
  // the interval [x_i, x_{i+1}], so it keeps what either node needs and
  // never less than the row before; once a row is full every later one
  // is, so sizing stops evaluating nodes there and counts the rest's
  // bytes at once; it stops at the ceiling too, before the node index is
  // allocated.  The last node only closes the last interval, which the
  // row before already sized for it.
  std::vector<std::size_t> head;  // row lengths before the first full row
  std::size_t len = std::min<std::size_t>(2, width);
  std::size_t need_next = node(0);
  const double row_bytes = 2.0 * sizeof(double);  // a double per column
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const std::size_t need = need_next;
    if (len < width && i + 1 < n_nodes) need_next = node(i + 1);
    len = std::min(width, std::max({len, need, need_next}));
    if (len == width) {
      bytes += row_bytes * static_cast<double>(width) *
               static_cast<double>(n_nodes - i);
      break;
    }
    head.push_back(len);
    bytes += row_bytes * static_cast<double>(len);
    if (bytes > ceiling) break;
  }
  if (bytes > ceiling) refuse();
  start_.assign(n_nodes + 1, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    start_[i + 1] = start_[i] + (i < head.size() ? head[i] : width);
  }
  j_.resize(start_.back());
  jp_.resize(start_.back());
  for (std::size_t i = 0; i < n_nodes; ++i) {
    node(i);
    const std::size_t n = start_[i + 1] - start_[i];
    std::copy_n(buf.begin(), n, j_.begin() + start_[i]);
    std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(width), n,
                jp_.begin() + start_[i]);
  }
}

std::size_t BesselTable::eval(double x, std::span<double> jl) const {
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
  // The last interval starts at node n_nodes - 2 = start_.size() - 3.
  std::size_t i = static_cast<std::size_t>(x / kBesselDx);
  i = std::min(i, start_.size() - 3);
  const double t = x / kBesselDx - static_cast<double>(i);
  // Cubic Hermite basis on [x_i, x_{i+1}].
  const double t2 = t * t, t3 = t2 * t;
  const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
  const double h10 = t3 - 2.0 * t2 + t;
  const double h01 = -2.0 * t3 + 3.0 * t2;
  const double h11 = t3 - t2;
  // Row i's length covers the interval; row i + 1 is at least as long.
  const std::size_t n = std::min(jl.size(), start_[i + 1] - start_[i]);
  const double* j0 = j_.data() + start_[i];
  const double* j1 = j_.data() + start_[i + 1];
  const double* p0 = jp_.data() + start_[i];
  const double* p1 = jp_.data() + start_[i + 1];
  double* out = jl.data();
  for (std::size_t l = 0; l < n; ++l) {
    out[l] =
        h00 * j0[l] + h01 * j1[l] + kBesselDx * (h10 * p0[l] + h11 * p1[l]);
  }
  std::fill(jl.begin() + static_cast<std::ptrdiff_t>(n), jl.end(), 0.0);
  return n;
}

}  // namespace plinger::boltzmann
