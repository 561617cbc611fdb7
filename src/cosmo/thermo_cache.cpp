#include "cosmo/thermo_cache.hpp"

#include <cmath>

#include "math/spline.hpp"

namespace plinger::cosmo {

ThermoCache::ThermoCache(const Background& bg, const Recombination& rec)
    : d_(bg.density_constants()) {
  const NuDensity* nu = bg.nu();
  has_nu_ = bg.params().has_massive_nu();
  n_massive_ = static_cast<double>(d_.n_massive_nu);

  constexpr std::size_t n = kNPoints;
  lna0_ = std::log(kAMin);
  h_ = -lna0_ / static_cast<double>(n - 1);
  inv_h_ = 1.0 / h_;
  h2over6_ = h_ * h_ / 6.0;

  const auto lna = plinger::math::linspace(lna0_, 0.0, n);
  std::vector<double> opac(n), cs2(n), rr(n, 1.0), pr(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    opac[i] = rec.opacity_lna(lna[i]);
    cs2[i] = rec.cs2_baryon_lna(lna[i]);
    if (has_nu_) {
      const double xi = d_.xi0 * std::exp(lna[i]);
      const double rho_ratio = nu->rho_ratio(xi);
      rr[i] = rho_ratio;
      pr[i] = nu->p_ratio(xi) / rho_ratio;  // (p/rho) / (1/3), -> 1 when rel.
    }
  }

  // Natural-spline second derivatives per channel, then interleave so one
  // interval touches exactly two adjacent knots.
  const plinger::math::CubicSpline s_opac(lna, opac);
  const plinger::math::CubicSpline s_cs2(lna, cs2);
  const plinger::math::CubicSpline s_rr(lna, rr);
  const plinger::math::CubicSpline s_pr(lna, pr);
  const auto opac2 = s_opac.second_derivs();
  const auto cs22 = s_cs2.second_derivs();
  const auto rr2 = s_rr.second_derivs();
  const auto pr2 = s_pr.second_derivs();

  knots_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    knots_[i] = Knot{opac[i], cs2[i], rr[i],    pr[i],
                     opac2[i], cs22[i], rr2[i], pr2[i]};
  }
}

ThermoPoint ThermoCache::eval(double a) const {
  const double lna = std::log(a);  // the only transcendental in this call

  // Tabulated channels clamp to the table edge below kAMin: opacity runs
  // as a^-2 there, which the boundary cubic in ln a cannot follow — it
  // would swing to huge negative values within a few spacings.  The
  // integrators never start below kAMin, so the clamp only guards stray
  // diagnostic queries; the analytic channels below stay exact at all a.
  const double lna_t = lna < lna0_ ? lna0_ : lna;

  // O(1) interval on the uniform ln-a grid; the index clamp keeps a > 1
  // on the last interval's cubic (standard spline extrapolation).
  const double u = (lna_t - lna0_) * inv_h_;
  std::size_t i = 0;
  if (u > 0.0) {
    i = static_cast<std::size_t>(u);
    if (i > kNPoints - 2) i = kNPoints - 2;
  }

  // Shared cubic weights for all four channels of the interval.
  const double x_lo = lna0_ + h_ * static_cast<double>(i);
  const double b = (lna_t - x_lo) * inv_h_;
  const double w = 1.0 - b;
  const double c0 = (w * w * w - w) * h2over6_;
  const double c1 = (b * b * b - b) * h2over6_;
  const Knot& lo = knots_[i];
  const Knot& hi = knots_[i + 1];

  ThermoPoint p;
  p.opacity = w * lo.opac + b * hi.opac + c0 * lo.opac2 + c1 * hi.opac2;
  p.cs2_baryon = w * lo.cs2 + b * hi.cs2 + c0 * lo.cs22 + c1 * hi.cs22;

  // Analytic power-law pieces: exact, no tabulation error.
  const double inv_a = 1.0 / a;
  const double inv_a2 = inv_a * inv_a;
  p.grho.cdm = d_.cdm0 * inv_a;
  p.grho.baryon = d_.baryon0 * inv_a;
  p.grho.photon = d_.photon0 * inv_a2;
  p.grho.nu_massless = d_.nu_massless0 * inv_a2;
  p.grho.lambda = d_.lambda0 * (a * a);
  p.grho_nu_rel_one = d_.nu_rel_one0 * inv_a2;

  // Reciprocal-multiply forms: the divider unit is the bottleneck of
  // this function after the log, and each product stays within one ulp
  // of the equivalent divide.
  constexpr double kThird = 1.0 / 3.0;
  double gpres = (p.grho.photon + p.grho.nu_massless) * kThird - p.grho.lambda;
  if (has_nu_) {
    const double rho_ratio = w * lo.rr + b * hi.rr + c0 * lo.rr2 + c1 * hi.rr2;
    const double p_over_rho3 =
        w * lo.pr + b * hi.pr + c0 * lo.pr2 + c1 * hi.pr2;
    p.nu_rho_ratio = rho_ratio;
    p.nu_xi = d_.xi0 * a;
    p.grho.nu_massive = p.grho_nu_rel_one * n_massive_ * rho_ratio;
    gpres += p.grho.nu_massive * kThird * p_over_rho3;
  }

  const double total = p.grho.total();
  p.adotoa = std::sqrt(total * kThird);
  p.adotdota_over_a = (total - 3.0 * gpres) * (1.0 / 6.0);
  return p;
}

}  // namespace plinger::cosmo
