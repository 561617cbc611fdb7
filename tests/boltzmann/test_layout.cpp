#include "boltzmann/config.hpp"

#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pb = plinger::boltzmann;

TEST(StateLayout, IndicesAreDisjointAndComplete) {
  pb::StateLayout L(16, 8, 10, 3, 6);
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < 8; ++i) seen.insert(i);  // scalar slots
  for (std::size_t l = 2; l <= 16; ++l) seen.insert(L.fg(l));
  for (std::size_t l = 0; l <= 8; ++l) seen.insert(L.gg(l));
  for (std::size_t l = 0; l <= 10; ++l) seen.insert(L.fn(l));
  for (std::size_t q = 0; q < 3; ++q) {
    for (std::size_t l = 0; l <= 6; ++l) seen.insert(L.psi(q, l));
  }
  EXPECT_EQ(seen.size(), L.size());
  EXPECT_EQ(*seen.rbegin(), L.size() - 1);
}

TEST(StateLayout, SizeFormula) {
  pb::StateLayout L(16, 8, 10, 3, 6);
  EXPECT_EQ(L.size(), 8u + 15u + 9u + 11u + 3u * 7u);
  pb::StateLayout no_nu(20, 20, 12, 0, 6);
  EXPECT_EQ(no_nu.size(), 8u + 19u + 21u + 13u);
}

TEST(StateLayout, RejectsBadSizes) {
  EXPECT_THROW(pb::StateLayout(3, 3, 8, 0, 5), plinger::InvalidArgument);
  EXPECT_THROW(pb::StateLayout(16, 20, 8, 0, 5),
               plinger::InvalidArgument);  // pol > photon
  EXPECT_THROW(pb::StateLayout(16, 8, 2, 0, 5), plinger::InvalidArgument);
  EXPECT_THROW(pb::StateLayout(16, 8, 8, 2, 1), plinger::InvalidArgument);
}

TEST(LmaxForK, ScalesWithKTau) {
  const double tau0 = 11839.0;
  // Tiny k: the additive pad dominates.
  EXPECT_EQ(pb::lmax_photon_for_k(1e-5, tau0), 60u);
  const std::size_t l1 = pb::lmax_photon_for_k(0.01, tau0);
  const std::size_t l2 = pb::lmax_photon_for_k(0.02, tau0);
  EXPECT_GT(l1, 0.9 * 0.01 * tau0);
  EXPECT_GT(l2, l1);
  EXPECT_NEAR(static_cast<double>(l2 - l1), 1.15 * 0.01 * tau0, 3.0);
  // Cap applies.
  EXPECT_EQ(pb::lmax_photon_for_k(10.0, tau0, 500), 500u);
}

TEST(LmaxForK, ClampsBeforeTheCast) {
  // 1.15 k tau0 + 60 above every size_t (or not a number at all) is
  // clamped in double, so the cap comes back instead of a wrapped size.
  const double tau0 = 11839.0;
  const double inf = std::numeric_limits<double>::infinity();
  for (double k : {1e308, inf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(pb::lmax_photon_for_k(k, tau0), 12000u) << k;
    EXPECT_EQ(pb::lmax_photon_for_k(k, tau0, 500), 500u) << k;
  }
}
