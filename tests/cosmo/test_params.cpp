#include "cosmo/params.hpp"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pc = plinger::cosmo;

TEST(CosmoParams, StandardCdmIsThePaperModel) {
  const auto p = pc::CosmoParams::standard_cdm();
  EXPECT_DOUBLE_EQ(p.h, 0.5);
  EXPECT_DOUBLE_EQ(p.omega_b, 0.05);
  EXPECT_DOUBLE_EQ(p.omega_lambda, 0.0);
  EXPECT_DOUBLE_EQ(p.t_cmb, 2.726);
  EXPECT_DOUBLE_EQ(p.n_s, 1.0);
  EXPECT_NO_THROW(p.validate());
  // Flat to high accuracy.
  const double total = p.omega_matter() + p.omega_lambda +
                       p.omega_gamma() + p.omega_nu_massless();
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(CosmoParams, PhotonDensityMatchesKnownValue) {
  // Omega_gamma h^2 = 2.47e-5 for T = 2.726 K.
  auto p = pc::CosmoParams::standard_cdm();
  EXPECT_NEAR(p.omega_gamma() * p.h * p.h, 2.475e-5, 3e-7);
}

TEST(CosmoParams, MasslessNeutrinoRatio) {
  auto p = pc::CosmoParams::standard_cdm();
  // 3 x (7/8)(4/11)^{4/3} = 0.6813.
  EXPECT_NEAR(p.omega_nu_massless() / p.omega_gamma(), 0.6813, 1e-3);
}

TEST(CosmoParams, HubbleUnits) {
  auto p = pc::CosmoParams::standard_cdm();
  // 1/H0 = 2997.9/h Mpc.
  EXPECT_NEAR(1.0 / p.hubble0(), 2997.92458 / 0.5, 1e-6);
}

TEST(CosmoParams, PresetsValidate) {
  EXPECT_NO_THROW(pc::CosmoParams::standard_cdm().validate());
  EXPECT_NO_THROW(pc::CosmoParams::lambda_cdm().validate());
  EXPECT_NO_THROW(pc::CosmoParams::mixed_dark_matter().validate());
}

TEST(CosmoParams, LambdaCdmIsFlat) {
  const auto p = pc::CosmoParams::lambda_cdm();
  const double total = p.omega_matter() + p.omega_lambda +
                       p.omega_gamma() + p.omega_nu_massless();
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(p.omega_lambda, 0.5);
}

TEST(CosmoParams, ValidationRejectsBadInput) {
  auto p = pc::CosmoParams::standard_cdm();
  p.h = 5.0;
  EXPECT_THROW(p.validate(), plinger::InvalidArgument);

  p = pc::CosmoParams::standard_cdm();
  p.omega_b = -0.1;
  EXPECT_THROW(p.validate(), plinger::InvalidArgument);

  p = pc::CosmoParams::standard_cdm();
  p.omega_lambda = 0.5;  // breaks flatness
  EXPECT_THROW(p.validate(), plinger::InvalidArgument);

  p = pc::CosmoParams::standard_cdm();
  p.omega_nu = 0.1;  // massive omega without species count (and non-flat)
  EXPECT_THROW(p.validate(), plinger::InvalidArgument);

  p = pc::CosmoParams::standard_cdm();
  p.n_s = -1.0;
  EXPECT_THROW(p.validate(), plinger::InvalidArgument);
}

TEST(CosmoParams, MassiveSpeciesAndDensityComeTogether) {
  // A species count without a density would vanish from the background
  // (no NuDensity is built for it), so each half is refused without the
  // other, and has_massive_nu() is the one test of the pair.
  auto p = pc::CosmoParams::standard_cdm();
  EXPECT_FALSE(p.has_massive_nu());
  p.n_massive_nu = 1;
  EXPECT_FALSE(p.has_massive_nu());
  try {
    p.validate();
    ADD_FAILURE() << "n_massive_nu = 1 with omega_nu = 0 accepted";
  } catch (const plinger::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("n_massive_nu"), std::string::npos) << what;
    EXPECT_NE(what.find("omega_nu"), std::string::npos) << what;
  }
  // A negative count is no model at all: without a density it would run
  // as the count-0 model under an identity of its own.
  for (const double omega_nu : {0.0, 0.1}) {
    auto q = pc::CosmoParams::standard_cdm();
    q.n_massive_nu = -1;
    q.omega_nu = omega_nu;
    try {
      q.validate();
      ADD_FAILURE() << "n_massive_nu = -1 accepted with omega_nu = "
                    << omega_nu;
    } catch (const plinger::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("n_massive_nu"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(pc::CosmoParams::mixed_dark_matter().has_massive_nu());
}

TEST(CosmoParams, SummaryMentionsKeyNumbers) {
  const auto s = pc::CosmoParams::standard_cdm().summary();
  EXPECT_NE(s.find("h=0.5"), std::string::npos);
  EXPECT_NE(s.find("Omega_b=0.05"), std::string::npos);
}
