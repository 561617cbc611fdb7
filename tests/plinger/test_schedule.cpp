#include "plinger/schedule.hpp"

#include <set>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "math/spline.hpp"

namespace pp = plinger::parallel;

namespace {
std::vector<double> grid(std::size_t n) {
  return plinger::math::linspace(0.01, 0.5, n);
}

/// Walk the schedule's issue chain, returning every ik in order.
std::vector<std::size_t> walk(const pp::KSchedule& s) {
  std::vector<std::size_t> order;
  for (std::size_t ik = s.ik_first(); ik != 0; ik = s.ik_next(ik)) {
    order.push_back(ik);
  }
  return order;
}
}  // namespace

TEST(KSchedule, NaturalOrderIsAscending) {
  pp::KSchedule s(grid(10), pp::IssueOrder::natural);
  const auto order = walk(s);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i + 1);
}

TEST(KSchedule, LargestFirstIssuesDescendingK) {
  pp::KSchedule s(grid(10), pp::IssueOrder::largest_first);
  const auto order = walk(s);
  ASSERT_EQ(order.size(), 10u);
  double prev = 1e9;
  for (std::size_t ik : order) {
    EXPECT_LT(s.k_of_ik(ik), prev);
    prev = s.k_of_ik(ik);
  }
  EXPECT_DOUBLE_EQ(s.k_of_ik(order.front()), 0.5);
}

TEST(KSchedule, ShuffleCoversAllExactlyOnce) {
  pp::KSchedule s(grid(64), pp::IssueOrder::random_shuffle);
  const auto order = walk(s);
  const std::set<std::size_t> unique(order.begin(), order.end());
  EXPECT_EQ(order.size(), 64u);
  EXPECT_EQ(unique.size(), 64u);
  EXPECT_EQ(*unique.begin(), 1u);
  EXPECT_EQ(*unique.rbegin(), 64u);
  // And is actually shuffled.
  pp::KSchedule nat(grid(64), pp::IssueOrder::natural);
  EXPECT_NE(order, walk(nat));
}

TEST(KSchedule, WeightsIntegrateTheGrid) {
  // Trapezoid weights sum to the grid span.
  pp::KSchedule s(grid(33), pp::IssueOrder::natural);
  double sum = 0.0;
  for (std::size_t ik = 1; ik <= 33; ++ik) sum += s.weight_of_ik(ik);
  EXPECT_NEAR(sum, 0.5 - 0.01, 1e-12);
}

TEST(KSchedule, RejectsBadGrids) {
  EXPECT_THROW(pp::KSchedule({}, pp::IssueOrder::natural),
               plinger::InvalidArgument);
  EXPECT_THROW(pp::KSchedule({0.2, 0.1}, pp::IssueOrder::natural),
               plinger::InvalidArgument);
  EXPECT_THROW(pp::KSchedule({-0.1, 0.1}, pp::IssueOrder::natural),
               plinger::InvalidArgument);
  pp::KSchedule s(grid(4), pp::IssueOrder::natural);
  EXPECT_THROW(s.k_of_ik(0), plinger::InvalidArgument);
  EXPECT_THROW(s.k_of_ik(5), plinger::InvalidArgument);
}

TEST(KSchedule, SingleModeGrid) {
  pp::KSchedule s({0.1}, pp::IssueOrder::largest_first);
  EXPECT_EQ(s.ik_first(), 1u);
  EXPECT_EQ(s.ik_next(1), 0u);
}

TEST(KSchedule, ResidualPreservesLargestFirstOrder) {
  pp::KSchedule s(grid(10), pp::IssueOrder::largest_first);
  const auto r = s.residual({2, 7, 5, 9});
  EXPECT_EQ(r.size(), 10u);       // full grid, same ik numbering...
  EXPECT_EQ(r.n_issued(), 4u);    // ...but only the remainder issued
  const auto order = walk(r);
  ASSERT_EQ(order.size(), 4u);
  double prev = 1e9;
  for (std::size_t ik : order) {
    EXPECT_LT(r.k_of_ik(ik), prev);  // still descending in k
    prev = r.k_of_ik(ik);
    EXPECT_EQ(r.k_of_ik(ik), s.k_of_ik(ik));  // mapping unchanged
    EXPECT_EQ(r.weight_of_ik(ik), s.weight_of_ik(ik));
  }
  EXPECT_EQ(order.front(), 9u);  // largest remaining k first
}

TEST(KSchedule, ResidualAcceptsAnyInputOrder) {
  pp::KSchedule s(grid(8), pp::IssueOrder::natural);
  const auto a = walk(s.residual({1, 4, 6}));
  const auto b = walk(s.residual({6, 1, 4}));
  EXPECT_EQ(a, b);  // original relative order, not input order
  EXPECT_EQ(a, (std::vector<std::size_t>{1, 4, 6}));
}

TEST(KSchedule, EmptyResidualIssuesNothing) {
  pp::KSchedule s(grid(5), pp::IssueOrder::largest_first);
  const auto r = s.residual({});
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.n_issued(), 0u);
  EXPECT_EQ(r.ik_first(), 0u);  // the master loop terminates immediately
  EXPECT_EQ(r.k_of_ik(3), s.k_of_ik(3));  // lookups still work
}

TEST(KSchedule, ResidualOfResidual) {
  pp::KSchedule s(grid(10), pp::IssueOrder::largest_first);
  const auto r = s.residual({2, 5, 7, 9}).residual({5, 9});
  EXPECT_EQ(walk(r), (std::vector<std::size_t>{9, 5}));
}

TEST(KSchedule, ResidualRejectsBadInput) {
  pp::KSchedule s(grid(5), pp::IssueOrder::natural);
  EXPECT_THROW(s.residual({0}), plinger::InvalidArgument);
  EXPECT_THROW(s.residual({6}), plinger::InvalidArgument);
  EXPECT_THROW(s.residual({2, 2}), plinger::InvalidArgument);
}
