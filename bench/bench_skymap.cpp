// Figure 3: a simulated sky map from the PLINGER output, "analogous to
// the COBE sky map ... the angular resolution is one-half degree,
// compared to ten degrees for COBE.  The maximum temperature differences
// are +/- 200 micro-K (with the average temperature equal to 2.726 K)."
//
// The bench computes the standard-CDM C_l to l = 360 (half-degree
// scales), realizes a_lm, synthesizes a half-degree map and a 10-degree
// smoothed "COBE view" of the same realization, writes both images, and
// prints the temperature statistics the caption quotes.

#include <cstdio>
#include <cmath>
#include <numbers>

#include "common/timing.hpp"
#include "io/ppm.hpp"
#include "plinger/driver.hpp"
#include "skymap/synthesis.hpp"
#include "spectra/cl.hpp"

int main() {
  using namespace plinger;
  const std::size_t l_max = 360;  // half-degree resolution
  const auto params = cosmo::CosmoParams::standard_cdm();
  const cosmo::Background bg(params);
  const cosmo::Recombination rec(bg);
  std::printf("== Figure 3: simulated sky map ==\n");

  // C_l to half-degree scales.
  const auto kgrid =
      spectra::make_cl_kgrid(l_max, bg.conformal_age(), 2.0);
  const parallel::KSchedule schedule(kgrid,
                                     parallel::IssueOrder::largest_first);
  boltzmann::PerturbationConfig cfg;
  cfg.rtol = 1e-5;
  parallel::RunSetup setup;
  std::printf("computing C_l to l = %zu (%zu modes)...\n", l_max,
              schedule.size());
  const auto out = parallel::run_plinger_threads(bg, rec, cfg, schedule,
                                                 setup, 2);
  spectra::ClAccumulator acc(l_max, spectra::PowerLawSpectrum{});
  for (const auto& [ik, r] : out.results) {
    acc.add_mode(r.k, schedule.weight_of_ik(ik), r.f_gamma);
  }
  auto spec = acc.temperature();
  spectra::normalize_to_cobe_quadrupole(spec, 18e-6, params.t_cmb);

  // Half-degree map: 360 x 720 pixels.
  const double w0 = wallclock_seconds();
  const auto alm = skymap::realize_alm(spec, 1995);
  const auto map = skymap::synthesize(alm, 360, 720);
  const double synth_seconds = wallclock_seconds() - w0;

  const double t0_uk = params.t_cmb * 1e6;
  std::printf("\nhalf-degree map (360 x 720), synthesized in %.1f s:\n",
              synth_seconds);
  std::printf("  min dT = %+.0f uK, max dT = %+.0f uK, rms = %.0f uK "
              "about T = %.3f K\n",
              map.min() * t0_uk, map.max() * t0_uk, map.rms() * t0_uk,
              params.t_cmb);
  std::printf("  (paper: maximum temperature differences +/- 200 "
              "micro-K)\n");
  const double amp = std::max(std::abs(map.min()), std::abs(map.max()));
  io::write_ppm_file("figure3_halfdeg.ppm", map.data, map.n_lon,
                     map.n_lat, -amp, amp);

  // The COBE view: same realization smoothed to ten degrees.
  auto alm_cobe = alm;
  const double ten_deg = 10.0 * std::numbers::pi / 180.0;
  alm_cobe.apply_gaussian_beam(ten_deg / std::sqrt(8.0 * std::log(2.0)));
  const auto cobe_map = skymap::synthesize(alm_cobe, 90, 180);
  std::printf("\nten-degree smoothed view (the COBE comparison):\n");
  std::printf("  min dT = %+.0f uK, max dT = %+.0f uK, rms = %.0f uK\n",
              cobe_map.min() * t0_uk, cobe_map.max() * t0_uk,
              cobe_map.rms() * t0_uk);
  const double camp =
      std::max(std::abs(cobe_map.min()), std::abs(cobe_map.max()));
  io::write_ppm_file("figure3_cobe_view.ppm", cobe_map.data,
                     cobe_map.n_lon, cobe_map.n_lat, -camp, camp);

  // Consistency: map variance against the realized spectrum.
  double expect = 0.0;
  for (std::size_t l = 2; l <= l_max; ++l) {
    expect += (2.0 * l + 1.0) * alm.realized_cl(l) /
              (4.0 * std::numbers::pi);
  }
  std::printf("\nvariance check: map rms %.1f uK vs spectrum rms %.1f "
              "uK\n",
              map.rms() * t0_uk, std::sqrt(expect) * t0_uk);
  std::printf("wrote figure3_halfdeg.ppm and figure3_cobe_view.ppm\n");
  return 0;
}
