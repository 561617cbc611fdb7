#include "plinger/schedule.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "math/rng.hpp"

namespace plinger::parallel {

namespace {
/// pos_of_ik_ sentinel for work indices a residual schedule never issues.
constexpr std::size_t kNotIssued = std::numeric_limits<std::size_t>::max();

/// Seed of the random_shuffle order, so the ablation is reproducible.
constexpr unsigned kShuffleSeed = 12345;
}  // namespace

KSchedule::KSchedule(std::vector<double> k_ascending, IssueOrder order)
    : k_(std::move(k_ascending)), order_(order) {
  PLINGER_REQUIRE(!k_.empty(), "KSchedule: empty k grid");
  for (std::size_t i = 1; i < k_.size(); ++i) {
    PLINGER_REQUIRE(k_[i] > k_[i - 1], "KSchedule: k must be ascending");
  }
  PLINGER_REQUIRE(k_.front() > 0.0, "KSchedule: k must be positive");

  // Trapezoid weights on the ascending grid.
  const std::size_t n = k_.size();
  weight_.assign(n, 0.0);
  if (n == 1) {
    weight_[0] = k_[0];  // degenerate single-mode grid
  } else {
    weight_[0] = 0.5 * (k_[1] - k_[0]);
    weight_[n - 1] = 0.5 * (k_[n - 1] - k_[n - 2]);
    for (std::size_t i = 1; i + 1 < n; ++i) {
      weight_[i] = 0.5 * (k_[i + 1] - k_[i - 1]);
    }
  }

  issue_.resize(n);
  std::iota(issue_.begin(), issue_.end(), std::size_t{1});
  switch (order_) {
    case IssueOrder::natural:
      break;
    case IssueOrder::largest_first:
      std::reverse(issue_.begin(), issue_.end());
      break;
    case IssueOrder::random_shuffle: {
      ::plinger::math::Xoshiro256 rng(kShuffleSeed);
      for (std::size_t i = n; i > 1; --i) {
        const std::size_t j =
            static_cast<std::size_t>(rng.uniform() * static_cast<double>(i));
        std::swap(issue_[i - 1], issue_[std::min(j, i - 1)]);
      }
      break;
    }
  }
  pos_of_ik_.assign(n + 1, kNotIssued);
  for (std::size_t p = 0; p < n; ++p) pos_of_ik_[issue_[p]] = p;
}

KSchedule KSchedule::residual(
    const std::vector<std::size_t>& remaining) const {
  std::vector<bool> keep(k_.size() + 1, false);
  for (const std::size_t ik : remaining) {
    PLINGER_REQUIRE(ik >= 1 && ik <= k_.size(),
                    "residual: ik out of range");
    PLINGER_REQUIRE(!keep[ik], "residual: duplicate ik");
    keep[ik] = true;
  }
  KSchedule r;
  r.k_ = k_;
  r.weight_ = weight_;
  r.order_ = order_;
  r.issue_.reserve(remaining.size());
  // Filter the base issue order, preserving its relative sequence.
  for (const std::size_t ik : issue_) {
    if (keep[ik]) r.issue_.push_back(ik);
  }
  r.pos_of_ik_.assign(k_.size() + 1, kNotIssued);
  for (std::size_t p = 0; p < r.issue_.size(); ++p) {
    r.pos_of_ik_[r.issue_[p]] = p;
  }
  return r;
}

double KSchedule::k_of_ik(std::size_t ik) const {
  PLINGER_REQUIRE(ik >= 1 && ik <= k_.size(), "k_of_ik: ik out of range");
  return k_[ik - 1];
}

double KSchedule::weight_of_ik(std::size_t ik) const {
  PLINGER_REQUIRE(ik >= 1 && ik <= k_.size(),
                  "weight_of_ik: ik out of range");
  return weight_[ik - 1];
}

std::size_t KSchedule::ik_first() const {
  return issue_.empty() ? 0 : issue_.front();
}

std::size_t KSchedule::ik_next(std::size_t ik) const {
  PLINGER_REQUIRE(ik >= 1 && ik <= k_.size(), "ik_next: ik out of range");
  const std::size_t pos = pos_of_ik_[ik];
  PLINGER_REQUIRE(pos != kNotIssued, "ik_next: ik is not issued");
  if (pos + 1 >= issue_.size()) return 0;
  return issue_[pos + 1];
}

}  // namespace plinger::parallel
