// Model discrimination — the paper's motivation: "These predictions can
// serve as a discriminant of the various models" (§1), across "the
// Hubble constant, neutrino masses, a possible cosmological constant,
// the initial perturbation spectrum".
//
// The bench runs the C_l pipeline for standard CDM, Lambda-CDM, mixed
// dark matter (one massive neutrino), a tilted (n_s = 0.8) model, and a
// CDM-isocurvature variant, then prints the observables an experimenter
// of 1995 would use to tell them apart.

#include <cstdio>
#include <cmath>

#include "math/spline.hpp"
#include "plinger/driver.hpp"
#include "spectra/cl.hpp"
#include "spectra/matterpower.hpp"

namespace {

using namespace plinger;

struct ModelRow {
  const char* name;
  std::size_t l_peak;
  double dt_peak, dt_plateau;
  double sigma8_shape;  ///< sigma_8 / sigma_25h (normalization-free)
};

ModelRow run_model(const char* name, const cosmo::CosmoParams& params,
                   boltzmann::PerturbationConfig cfg,
                   spectra::PowerLawSpectrum prim) {
  const std::size_t l_max = 300;
  const cosmo::Background bg(params);
  const cosmo::Recombination rec(bg);

  const auto kgrid =
      spectra::make_cl_kgrid(l_max, bg.conformal_age(), 1.6);
  const parallel::KSchedule schedule(kgrid,
                                     parallel::IssueOrder::largest_first);
  parallel::RunSetup setup;
  const auto out = parallel::run_plinger_threads(bg, rec, cfg, schedule,
                                                 setup, 2);

  spectra::ClAccumulator acc(l_max, prim);
  spectra::MatterPower mp(prim);
  for (const auto& [ik, r] : out.results) {
    acc.add_mode(r.k, schedule.weight_of_ik(ik), r.f_gamma);
  }
  auto spec = acc.temperature();
  spectra::normalize_to_cobe_quadrupole(spec, 18e-6, params.t_cmb);

  // Matter shape from a separate small log grid.
  const auto km = math::logspace(1e-3, 0.7, 28);
  const parallel::KSchedule ms(km, parallel::IssueOrder::largest_first);
  parallel::RunSetup msetup;
  msetup.lmax_cap = 400;
  const auto mout = parallel::run_plinger_threads(bg, rec, cfg, ms,
                                                  msetup, 2);
  for (const auto& [ik, r] : mout.results) {
    mp.add_mode(r.k, r.final_state.delta_m);
  }
  mp.finalize();

  ModelRow row;
  row.name = name;
  row.l_peak = 2;
  for (std::size_t l = 30; l <= l_max; ++l) {
    if (spec.dl(l) > spec.dl(row.l_peak)) row.l_peak = l;
  }
  const double t0_uk = params.t_cmb * 1e6;
  row.dt_peak = t0_uk * std::sqrt(spec.dl(row.l_peak));
  row.dt_plateau = t0_uk * std::sqrt(spec.dl(10));
  row.sigma8_shape =
      mp.sigma_r(8.0 / params.h) / mp.sigma_r(25.0 / params.h);
  return row;
}

}  // namespace

int main() {
  using namespace plinger;
  std::printf("== model discrimination (C_l to l=300, COBE-normalized; "
              "shape observables) ==\n\n");

  boltzmann::PerturbationConfig base;
  base.rtol = 1e-5;
  spectra::PowerLawSpectrum hz;  // n_s = 1

  std::vector<ModelRow> rows;
  rows.push_back(run_model("standard CDM",
                           cosmo::CosmoParams::standard_cdm(), base, hz));
  rows.push_back(run_model("Lambda-CDM",
                           cosmo::CosmoParams::lambda_cdm(), base, hz));
  {
    boltzmann::PerturbationConfig mdm_cfg = base;
    mdm_cfg.lmax_massive_nu = 8;
    rows.push_back(run_model("MDM (m_nu ~ 5 eV)",
                             cosmo::CosmoParams::mixed_dark_matter(),
                             mdm_cfg, hz));
  }
  {
    auto tilted = cosmo::CosmoParams::standard_cdm();
    tilted.n_s = 0.8;
    spectra::PowerLawSpectrum prim;
    prim.n_s = 0.8;
    prim.k_pivot = 4.5e-4;  // ~COBE scales so the plateau stays pinned
    rows.push_back(run_model("tilted CDM n=0.8", tilted, base, prim));
  }
  {
    boltzmann::PerturbationConfig iso_cfg = base;
    iso_cfg.ic_type = boltzmann::InitialConditionType::cdm_isocurvature;
    rows.push_back(run_model("CDM isocurvature",
                             cosmo::CosmoParams::standard_cdm(), iso_cfg,
                             hz));
  }

  std::printf("model                 l_peak   dT_peak   dT(l=10)   "
              "peak/plateau   sigma8/sigma25h\n");
  for (const auto& r : rows) {
    std::printf("%-20s   %4zu    %5.1f uK   %5.1f uK      %5.2f       "
                "%7.2f\n",
                r.name, r.l_peak, r.dt_peak, r.dt_plateau,
                (r.dt_peak / r.dt_plateau) * (r.dt_peak / r.dt_plateau),
                r.sigma8_shape);
  }
  std::printf("\nexpected discriminants: Lambda shifts and boosts the "
              "peak; massive neutrinos\nsuppress sigma8; tilt lowers "
              "the peak-to-plateau ratio; the isocurvature\nmode peaks "
              "at a different l entirely.\n");
  return 0;
}
