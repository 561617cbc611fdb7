#pragma once

/// Products — the standard outputs assembled from a RunOutput.
///
/// Every example used to re-write the same post-processing: accumulate
/// C_l over the result map, COBE-normalize, feed delta_m into
/// MatterPower, dump the Appendix-A unit_1/unit_2 file pair.  These
/// helpers are that post-processing, once.  Accumulation walks the
/// result map in ascending work-index order — the same order the
/// hand-rolled loops used — so refactored entry points produce
/// bit-identical output.

#include <cstddef>
#include <string>
#include <vector>

#include "plinger/driver.hpp"
#include "run/plan.hpp"
#include "spectra/cl.hpp"
#include "spectra/matterpower.hpp"

namespace plinger::run {

/// COBE-normalized angular spectra of a run.
struct SpectrumSet {
  spectra::AngularSpectrum temperature;   ///< COBE-normalized
  spectra::AngularSpectrum polarization;  ///< scaled by the same factor
  spectra::AngularSpectrum cross;         ///< scaled by the same factor
  double cobe_factor = 1.0;  ///< the normalization applied (feeds P(k))
  std::size_t modes_used = 0;
  /// Highest l the polarization/cross columns are actually populated to
  /// (the tallest G tower the accumulator saw; l_max under solver=los).
  /// Entries above it are structural zeros, not physics.
  std::size_t polarization_l_max = 0;
};

/// Wrap already-settled mode results (a complete checkpoint journal,
/// a cached batch output) as the RunOutput shape the product builders
/// consume — exactly what execute() returns for a fully resumed run:
/// every mode counted as loaded, zero wallclock/CPU/flops.  This is the
/// serve layer's journal warm start: products without a driver spin-up.
parallel::RunOutput output_from_results(
    std::map<std::size_t, boltzmann::ModeResult> results);

/// Assemble C_l^T, C_l^P, C_l^TP for l = 0..the plan's l_max from the
/// photon moments and pin the temperature quadrupole to COBE (q_rms_ps
/// in Kelvin; the paper's 18 uK default).
///
/// Every mode arrives as F_l/G_l towers: under solver = los the worker
/// that evolved a mode already projected its SourceTable
/// (boltzmann/source_table.hpp), F_l with the Pi correction folded into
/// the quadrupole source and G_l from the E-mode kernel, so
/// C_l^EE/C_l^TE ride the fast path and this only accumulates.  A run
/// whose modes never carry an l >= 2 polarization contribution is
/// refused (no silent zero EE/TE); SpectrumSet::polarization_l_max
/// marks the honest coverage.
SpectrumSet make_spectra(const RunPlan& plan,
                         const parallel::RunOutput& out,
                         double q_rms_ps = 18e-6);

/// Matter power spectrum from each mode's present-day (or tau_end)
/// delta_m.  cobe_factor comes from make_spectra().cobe_factor, or 1.0
/// for shape-only quantities (transfer function, sigma ratios).
spectra::MatterPower make_matter_power(const parallel::RunOutput& out,
                                       double n_s,
                                       double cobe_factor = 1.0);

/// The original LINGER output pair: unit_1, the ASCII stream of
/// 21-value header records, and unit_2, the Fortran-unformatted binary
/// of photon moment arrays.  Byte-identical to the historical
/// linger_cli writer.
struct UnitFileStats {
  std::size_t rows = 0;     ///< unit_1 table rows
  std::size_t records = 0;  ///< unit_2 binary records
};
UnitFileStats write_unit_files(const parallel::RunOutput& out,
                               const std::string& unit1_path,
                               const std::string& unit2_path);

}  // namespace plinger::run
