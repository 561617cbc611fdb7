#pragma once

/// Wavenumber schedule for a PLINGER run.
///
/// "Since larger wavenumbers require greater computation, one simple
/// method by which we minimized this idle time was to compute the largest
/// k first" (paper §5.2).  The schedule owns the ascending k-grid (with
/// its integration weights) and an issue order; ik_next() walks the order
/// exactly as the paper's master does.

#include <cstddef>
#include <vector>

namespace plinger::parallel {

/// Issue-order policies; LargestFirst is the paper's production choice,
/// the others are ablation baselines for bench_schedule.
enum class IssueOrder { largest_first, natural, random_shuffle };

class KSchedule {
 public:
  /// k_ascending: the integration grid (strictly increasing).
  /// random_shuffle draws its order from one fixed seed.
  KSchedule(std::vector<double> k_ascending, IssueOrder order);

  /// Residual schedule for a resumed run: the same grid, ik numbering,
  /// k/weight mapping, and issue policy, but only the work indices in
  /// `remaining` are issued, in their original relative order (so
  /// largest-k-first stays largest-k-first over the residual set).
  /// `remaining` may be in any order and may be empty (a fully resumed
  /// run issues nothing).
  KSchedule residual(const std::vector<std::size_t>& remaining) const;

  std::size_t size() const { return k_.size(); }

  /// Number of work indices the issue order visits; equal to size()
  /// except for residual schedules.
  std::size_t n_issued() const { return issue_.size(); }

  /// Wavenumber of 1-based work index ik (the protocol transmits ik as a
  /// double, following Appendix A).
  double k_of_ik(std::size_t ik) const;

  /// Trapezoid integration weight (dk) of work index ik on the ascending
  /// grid.
  double weight_of_ik(std::size_t ik) const;

  /// First work index to issue (1-based); 0 when nothing is issued
  /// (empty residual).
  std::size_t ik_first() const;

  /// Advance ik to the next work index; returns 0 when exhausted
  /// (mirrors the paper's ik_next subroutine).
  std::size_t ik_next(std::size_t ik) const;

  /// The ascending grid itself.
  const std::vector<double>& k_grid() const { return k_; }

  IssueOrder order() const { return order_; }

 private:
  KSchedule() = default;  ///< used by residual()

  std::vector<double> k_;        ///< ascending
  std::vector<double> weight_;   ///< trapezoid dk per ascending index
  std::vector<std::size_t> issue_;  ///< issue order as 1-based ik values
  std::vector<std::size_t> pos_of_ik_;  ///< position of ik in issue_
                                        ///< (kNotIssued when excluded)
  IssueOrder order_ = IssueOrder::largest_first;
};

}  // namespace plinger::parallel
