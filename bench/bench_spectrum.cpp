// Figure 2: the CMB anisotropy power spectrum of standard Cold Dark
// Matter, COBE Q_rms-PS normalized, against the era's experimental band
// powers (the COSAPP compilation role), plus the companion linear matter
// power spectrum (transfer function and sigma_8), which the abstract
// lists as LINGER's other headline output.
//
// Pass "--full" for a deeper run (l_max 700, finer k sampling).

#include <cstdio>
#include <cstring>
#include <cmath>

#include "io/ascii_table.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"
#include "spectra/bandpower.hpp"
#include "spectra/cl.hpp"
#include "spectra/cosapp_data.hpp"
#include "spectra/matterpower.hpp"

#include <fstream>

int main(int argc, char** argv) {
  using namespace plinger;
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  const std::size_t l_max = full ? 700 : 450;
  const double points_per_osc = full ? 2.5 : 2.0;

  const auto params = cosmo::CosmoParams::standard_cdm();
  const cosmo::Background bg(params);
  const cosmo::Recombination rec(bg);
  std::printf("== Figure 2: CMB anisotropy spectrum, %s ==\n",
              params.summary().c_str());
  std::printf("tau0 = %.1f Mpc, z* = %.0f, sound horizon = %.1f Mpc\n",
              bg.conformal_age(), rec.z_star(),
              rec.sound_horizon(rec.tau_star()));

  // --- C_l run over the dense k-grid.
  const auto kgrid =
      spectra::make_cl_kgrid(l_max, bg.conformal_age(), points_per_osc);
  const parallel::KSchedule schedule(kgrid,
                                     parallel::IssueOrder::largest_first);
  boltzmann::PerturbationConfig cfg;
  cfg.rtol = 1e-5;
  // Carry the polarization hierarchy deep enough that the MB95
  // polarization spectrum is meaningful over the printed range.
  cfg.lmax_polarization = 250;
  parallel::RunSetup setup;
  std::printf("run: %zu modes to k = %.4f Mpc^-1 (largest first)\n",
              schedule.size(), kgrid.back());
  const auto out = parallel::run_plinger_threads(bg, rec, cfg, schedule,
                                                 setup, 2);
  std::printf("completed in %.1f s wallclock (%.0f Mflop sustained)\n",
              out.wallclock_seconds, out.flops_per_second() / 1e6);

  spectra::ClAccumulator acc(l_max, spectra::PowerLawSpectrum{});
  for (const auto& [ik, r] : out.results) {
    acc.add_mode(r.k, schedule.weight_of_ik(ik), r.f_gamma);
    acc.add_mode_polarization(r.k, schedule.weight_of_ik(ik), r.g_gamma);
    acc.add_mode_cross(r.k, schedule.weight_of_ik(ik), r.f_gamma,
                       r.g_gamma);
  }
  auto spec = acc.temperature();
  auto pol = acc.polarization();
  auto cross = acc.cross();
  const double q_rms_ps = 18e-6;
  const double cobe = spectra::normalize_to_cobe_quadrupole(
      spec, q_rms_ps, params.t_cmb);
  for (double& c : pol.cl) c *= cobe;
  for (double& c : cross.cl) c *= cobe;

  // --- The curve (printed decimated; full table to a file).
  const double t0_uk = params.t_cmb * 1e6;
  std::printf("\n   l    l(l+1)C_l/2pi    dT [uK]   dT_pol [uK]   "
              "dT_TG [uK, signed]\n");
  for (std::size_t l = 2; l <= l_max; l = (l < 10) ? l + 2 : l + l / 4) {
    const double dx = cross.dl(l);
    std::printf("%5zu    %.4e     %6.1f      %.3f        %+.3f\n", l,
                spec.dl(l), t0_uk * std::sqrt(spec.dl(l)),
                t0_uk * std::sqrt(pol.dl(l)),
                (dx >= 0.0 ? 1.0 : -1.0) * t0_uk *
                    std::sqrt(std::abs(dx)));
  }
  {
    std::ofstream f("figure2_cl.dat");
    io::AsciiTableWriter w(f, {"l", "Dl", "dT_uK", "dT_pol_uK"});
    for (std::size_t l = 2; l <= l_max; ++l) {
      w.row(std::vector<double>{static_cast<double>(l), spec.dl(l),
                                t0_uk * std::sqrt(spec.dl(l)),
                                t0_uk * std::sqrt(pol.dl(l))});
    }
  }
  std::printf("(full curve written to figure2_cl.dat; the polarization "
              "column is carried to l = 250)\n");

  std::size_t l_peak = 2;
  for (std::size_t l = 50; l <= l_max; ++l) {
    if (spec.dl(l) > spec.dl(l_peak)) l_peak = l;
  }
  std::printf("\nfirst acoustic peak: l = %zu, dT = %.1f uK "
              "(paper-era standard CDM: l ~ 220, dT ~ 65 uK)\n",
              l_peak, t0_uk * std::sqrt(spec.dl(l_peak)));

  // --- Experimental band powers (the Figure's points).
  std::printf("\nexperiment        l_eff   measured dT [uK]    theory "
              "dT [uK]   pull\n");
  for (const auto& m : spectra::cosapp_measurements()) {
    if (m.l_eff > static_cast<double>(l_max)) continue;
    const double sigma_l = 0.25 * (m.l_hi - m.l_lo);
    const double theory =
        t0_uk * spectra::band_power_gaussian(spec, m.l_eff,
                                             std::max(2.0, sigma_l));
    if (m.upper_limit) {
      std::printf("%-14s  %6.0f    < %-6.0f (95%%)       %6.1f       "
                  "%s\n",
                  m.experiment, m.l_eff, m.delta_t_uk, theory,
                  theory < m.delta_t_uk ? "ok" : "EXCEEDS");
    } else {
      const double err =
          theory > m.delta_t_uk ? m.err_plus : m.err_minus;
      const double pull = (m.delta_t_uk - theory) / err;
      std::printf("%-14s  %6.0f    %5.0f -%3.0f/+%-3.0f      %6.1f       "
                  "%+.1f\n",
                  m.experiment, m.l_eff, m.delta_t_uk, m.err_minus,
                  m.err_plus, theory, pull);
    }
  }

  // --- Companion matter power spectrum on its own wide k-grid.
  std::printf("\n== matter power spectrum (COBE-normalized) ==\n");
  const auto k_matter = math::logspace(1e-4, 1.0, 48);
  const parallel::KSchedule m_sched(k_matter,
                                    parallel::IssueOrder::largest_first);
  parallel::RunSetup m_setup;
  m_setup.lmax_cap = 500;  // delta_m needs no deep photon hierarchy
  const auto m_out = parallel::run_plinger_threads(bg, rec, cfg, m_sched,
                                                   m_setup, 2);
  spectra::MatterPower mp((spectra::PowerLawSpectrum()));
  for (const auto& [ik, r] : m_out.results) {
    mp.add_mode(r.k, r.final_state.delta_m);
  }
  mp.finalize(cobe);

  const double gamma_shape = params.omega_matter() * params.h;
  std::printf("   k [1/Mpc]     P(k) [Mpc^3]     T(k)/T_BBKS\n");
  for (double lk = -3.5; lk <= -0.1; lk += 0.425) {
    const double k = std::pow(10.0, lk);
    std::printf("  %.4e     %.4e      %.3f\n", k, mp(k),
                mp.transfer(k) /
                    spectra::bbks_transfer(k, gamma_shape, params.h));
  }
  std::printf("sigma_8 = %.2f (COBE-normalized standard CDM is famously "
              "high: ~1.1-1.3)\n",
              mp.sigma_r(8.0 / params.h));
  return 0;
}
