#pragma once

/// Line-of-sight integration of the temperature transfer function — the
/// paper's community's next step (it became CMBFAST, Seljak &
/// Zaldarriaga 1996), promoted here from an ablation bench to the
/// selectable production fast path (`solver = los` in the run layer).
///
/// Instead of carrying the photon hierarchy to lmax ~ k tau0, the mode
/// is evolved with a short hierarchy (the sources only need the first
/// few moments) and the observed multipoles are projected afterwards:
///
///   Theta_l(k) = int dtau [ g (Theta0^N + psi) j_l(x)
///                         + g v_b^N j_l'(x)
///                         + e^{-kappa} (phi' + psi') j_l(x)
///                         + g (Pi/16) (3 j_l''(x) + j_l(x)) ],
///
/// with x = k (tau0 - tau), g the visibility function, and all fluid
/// quantities in the conformal Newtonian gauge.  This header holds the
/// LOS run options, the shared source sample times and the BesselTable;
/// the source extraction and the projection itself (temperature and the
/// polarization moment G_l for C_l^EE/C_l^TE) live in the SourceTable
/// layer (boltzmann/source_table.hpp: build_source_table +
/// project_source_table).  The ctest `accuracy` gate
/// (tests/golden/test_accuracy.cpp) pins the per-l error of every
/// projected spectrum against the full hierarchy so the fast path
/// cannot silently drift.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "boltzmann/mode_evolution.hpp"

namespace plinger::boltzmann {

/// Controls for the line-of-sight projection.
struct LosOptions {
  std::size_t lmax_evolve = 40;   ///< short hierarchy for the sources
  std::size_t n_rec_samples = 160;  ///< across the visibility peak
  std::size_t n_late_samples = 80;  ///< recombination -> today (ISW)
  double rec_width_sigmas = 7.0;    ///< half-width of the dense window

  friend bool operator==(const LosOptions&, const LosOptions&) = default;
};

/// Smallest short hierarchy the LOS sources tolerate: the monopole,
/// dipole, and quadrupole feed the source terms directly and the
/// truncation error of a shorter tower leaks into them immediately.
inline constexpr std::size_t kLosMinLmaxEvolve = 8;

/// Range-check a LosOptions: the short hierarchy must carry the source
/// moments (lmax_evolve >= kLosMinLmaxEvolve) and the sample windows
/// must be non-degenerate (>= 2 recombination samples, >= 1 late/ISW
/// sample, positive window width).  Throws InvalidArgument naming the
/// offending field.
void validate_los_options(const LosOptions& opts);

/// The named accuracy tiers of the `los_accuracy` run-config key.
/// "standard" is the LosOptions default; "draft" trades ~2x fewer
/// samples and a shorter hierarchy for speed; "high" doubles the
/// sampling of "draft" relative to standard.  Throws InvalidArgument on
/// an unknown tier name.
LosOptions los_options_for_accuracy(const std::string& tier);

/// Sample times for the source integrals of the given cosmology (shared
/// by every mode).  Validates `opts` first (degenerate windows are a
/// configuration error, not a NaN factory).
std::vector<double> los_sample_taus(const cosmo::Background& bg,
                                    const cosmo::Recombination& rec,
                                    const LosOptions& opts = LosOptions{});

/// j_l and j_l' below this magnitude at both nodes of an interval are
/// not tabled: the row stops one l past the last entry at or above it.
/// At 1e-30 every projected C_l is bitwise the full table's and towers
/// move only in entries below 1e-28 of their peak.  Cutting harder buys
/// little and costs bits: 1e-20 folds about 8% fewer (point, l) pairs
/// but moves towers to 4e-19 of their peak, and 1e-12 moves C_l.
inline constexpr double kBesselCut = 1e-30;

/// Precomputed spherical Bessel table for the projection hot loop:
/// j_l(x) for l = 0..l_max on a uniform x-grid, evaluated between nodes
/// by cubic Hermite interpolation (the exact derivative j_l' at every
/// node comes from the recurrence, so the interpolant is ~1e-6 accurate
/// at the default spacing).  One table is built per run and shared by
/// every mode's projection; asking for l above l_max or x outside
/// [0, x_max] is an error, not an extrapolation.
///
/// The table is triangular, as in CMBFAST (Seljak & Zaldarriaga 1996):
/// j_l is negligible until x nears l, so node i's row keeps l only up to
/// one past the last l where |j_l| or |j_l'| >= kBesselCut at node i or
/// i + 1 (at least 2 entries, never shorter than the row before).  Each
/// row is computed at the full width first, so the kept entries are
/// bitwise those of a rectangular table, and neither the node values
/// nor the length of a row that serves an interval depend on x_max.
/// The rows are sized first and stored in one exact block per column
/// (j_l, j_l'): no rectangle is allocated, and the block goes back to
/// the system with the table.
class BesselTable {
 public:
  /// Tabulate l = 0..l_max over x in [0, x_max] with node spacing dx.
  /// Throws InvalidArgument naming x_max when x_max is not finite or the
  /// table it asks for cannot be indexed in size_t.
  BesselTable(std::size_t l_max, double x_max, double dx = 0.125);

  std::size_t l_max() const { return l_max_; }
  double x_max() const { return x_max_; }

  /// Fill jl[l] = j_l(x) for l < n and zero the rest, where n <=
  /// jl.size() is the tabled length at x; returns n (>= 2 when
  /// jl.size() >= 2 and l_max >= 1).  Requires jl.size() - 1 <= l_max()
  /// (throws InvalidArgument naming the table range otherwise) and x in
  /// [0, x_max()].
  std::size_t eval(double x, std::span<double> jl) const;

 private:
  std::size_t l_max_ = 0;
  double x_max_ = 0.0;
  double dx_ = 0.0;
  std::vector<double> j_;   ///< node-major rows: j_[start_[i] + l]
  std::vector<double> jp_;  ///< node-major derivatives, same layout
  std::vector<std::size_t> start_;  ///< row i is [start_[i], start_[i+1])
};

}  // namespace plinger::boltzmann
