#include "run/products.hpp"

#include <fstream>

#include "common/error.hpp"
#include "io/ascii_table.hpp"
#include "io/fortran_binary.hpp"
#include "plinger/records.hpp"

namespace plinger::run {

parallel::RunOutput output_from_results(
    std::map<std::size_t, boltzmann::ModeResult> results) {
  parallel::RunOutput out;
  out.n_modes_loaded = results.size();
  out.results = std::move(results);
  return out;
}

SpectrumSet make_spectra(const RunPlan& plan,
                         const parallel::RunOutput& out, double q_rms_ps) {
  spectra::PowerLawSpectrum primordial;
  primordial.n_s = plan.config().n_s;
  spectra::ClAccumulator acc(plan.config().l_max, primordial);
  for (const auto& [ik, r] : out.results) {
    const double w = plan.schedule().weight_of_ik(ik);
    acc.add_mode(r.k, w, r.f_gamma);
    acc.add_mode_polarization(r.k, w, r.g_gamma);
    acc.add_mode_cross(r.k, w, r.f_gamma, r.g_gamma);
  }
  // Silent-zero fence: a run that produced modes but never reached an
  // l >= 2 polarization contribution would hand the caller EE/TE
  // columns of zeros with no diagnostic.  Refuse instead — the fix is
  // a taller polarization tower, not downstream zeros.
  if (acc.modes_added() > 0 && acc.polarization_l_max() < 2) {
    throw Error(std::string("make_spectra: no polarization sources "
                            "reached l >= 2 under solver=") +
                (plan.setup().los.enabled ? "los" : "hierarchy") +
                " — C_l^EE/C_l^TE would be silently zero (check "
                "lmax_polarization and the mode results' G towers)");
  }
  SpectrumSet s;
  s.temperature = acc.temperature();
  s.polarization = acc.polarization();
  s.cross = acc.cross();
  s.modes_used = acc.modes_added();
  s.polarization_l_max = acc.polarization_l_max();
  s.cobe_factor = spectra::normalize_to_cobe_quadrupole(
      s.temperature, q_rms_ps, plan.context().params().t_cmb);
  for (double& c : s.polarization.cl) c *= s.cobe_factor;
  for (double& c : s.cross.cl) c *= s.cobe_factor;
  return s;
}

spectra::MatterPower make_matter_power(const parallel::RunOutput& out,
                                       double n_s, double cobe_factor) {
  spectra::PowerLawSpectrum primordial;
  primordial.n_s = n_s;
  spectra::MatterPower mp(primordial);
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    mp.add_mode(r.k, r.final_state.delta_m);
  }
  mp.finalize(cobe_factor);
  return mp;
}

UnitFileStats write_unit_files(const parallel::RunOutput& out,
                               const std::string& unit1_path,
                               const std::string& unit2_path) {
  // unit_1: the 21-double header records, ASCII (Appendix A: "this data
  // is written to an ascii file").
  std::ofstream u1(unit1_path);
  PLINGER_REQUIRE(u1.is_open(), "cannot write " + unit1_path);
  io::AsciiTableWriter table(
      u1, {"ik", "k", "tau0", "a", "delta_c", "delta_b", "delta_g",
           "delta_nu", "delta_m", "theta_b", "theta_g", "eta", "h",
           "phi", "psi", "steps", "rhs", "flops", "cpu_s", "tau_switch",
           "lmax"});
  // unit_2: ik + moment arrays as Fortran records ("written to a binary
  // file").
  std::ofstream u2(unit2_path, std::ios::binary);
  PLINGER_REQUIRE(u2.is_open(), "cannot write " + unit2_path);
  io::FortranRecordWriter records(u2);

  for (const auto& [ik, r] : out.results) {
    table.row(parallel::pack_header(ik, r));
    records.record(parallel::pack_payload(ik, r));
  }
  return {table.rows_written(), records.records_written()};
}

}  // namespace plinger::run
