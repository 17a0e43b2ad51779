// Tests for the power model (Eq. 1, Lemma 3, convex envelope, Thm. 3).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "power/power_model.h"

namespace dcn {
namespace {

TEST(PowerModel, Eq1Semantics) {
  const PowerModel m(/*sigma=*/2.0, /*mu=*/0.5, /*alpha=*/2.0, /*capacity=*/10.0);
  EXPECT_DOUBLE_EQ(m.f(0.0), 0.0);  // powered-down link
  EXPECT_DOUBLE_EQ(m.f(2.0), 2.0 + 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(m.g(2.0), 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(m.power_rate(2.0), (2.0 + 2.0) / 2.0);
}

TEST(PowerModel, ConstructionContracts) {
  EXPECT_THROW(PowerModel(-1.0, 1.0, 2.0), ContractViolation);
  EXPECT_THROW(PowerModel(1.0, 0.0, 2.0), ContractViolation);
  EXPECT_THROW(PowerModel(1.0, 1.0, 1.0), ContractViolation);  // alpha > 1
  EXPECT_THROW(PowerModel(1.0, 1.0, 2.0, 0.0), ContractViolation);
}

TEST(PowerModel, Lemma3OptimalRate) {
  // R_opt = (sigma / (mu (alpha-1)))^(1/alpha).
  const PowerModel m(8.0, 2.0, 3.0);
  const double expected = std::pow(8.0 / (2.0 * 2.0), 1.0 / 3.0);
  EXPECT_NEAR(m.r_opt(), expected, 1e-12);
  // The power rate is indeed minimized at R_opt: sample around it.
  const double at_opt = m.power_rate(m.r_opt());
  for (double x : {0.5 * m.r_opt(), 0.9 * m.r_opt(), 1.1 * m.r_opt(), 2.0 * m.r_opt()}) {
    EXPECT_GE(m.power_rate(x), at_opt - 1e-12);
  }
}

TEST(PowerModel, PureSpeedScalingHasZeroRopt) {
  const PowerModel m = PowerModel::pure_speed_scaling(2.0);
  EXPECT_DOUBLE_EQ(m.sigma(), 0.0);
  EXPECT_DOUBLE_EQ(m.mu(), 1.0);
  EXPECT_DOUBLE_EQ(m.r_opt(), 0.0);
  // Envelope degenerates to f itself.
  for (double x : {0.0, 0.5, 1.0, 4.0}) {
    EXPECT_DOUBLE_EQ(m.envelope(x), m.f(x));
  }
}

TEST(PowerModel, EnvelopeIsTightLowerBound) {
  const PowerModel m(4.0, 1.0, 2.0);
  const double rhat = m.r_hat();
  EXPECT_NEAR(rhat, 2.0, 1e-12);  // (4 / (1*1))^(1/2)
  // env <= f everywhere, with equality at 0, at r_hat and beyond.
  for (double x : {0.0, 0.5, 1.0, 1.9, 2.0, 3.0, 7.0}) {
    EXPECT_LE(m.envelope(x), m.f(x) + 1e-12) << "x=" << x;
  }
  EXPECT_DOUBLE_EQ(m.envelope(0.0), 0.0);
  EXPECT_NEAR(m.envelope(rhat), m.f(rhat), 1e-12);
  EXPECT_NEAR(m.envelope(5.0), m.f(5.0), 1e-12);
  // Strictly below f on (0, r_hat): f jumps by sigma at 0+.
  EXPECT_LT(m.envelope(0.1), m.f(0.1));
}

TEST(PowerModel, EnvelopeDerivativeIsContinuousAtRhat) {
  const PowerModel m(4.0, 1.0, 2.0);
  const double rhat = m.r_hat();
  // Tangency at R_opt: linear slope equals f'(R_opt).
  EXPECT_NEAR(m.envelope_derivative(rhat - 1e-9), m.envelope_derivative(rhat + 1e-9),
              1e-6);
  // Slope equals power rate at r_hat.
  EXPECT_NEAR(m.envelope_derivative(0.0), m.power_rate(rhat), 1e-12);
}

TEST(PowerModel, EnvelopeConvexOnSamples) {
  const PowerModel m(3.0, 2.0, 2.5);
  // Midpoint convexity on a sample grid.
  for (double a = 0.0; a <= 4.0; a += 0.25) {
    for (double b = a; b <= 4.0; b += 0.25) {
      const double mid = 0.5 * (a + b);
      EXPECT_LE(m.envelope(mid), 0.5 * (m.envelope(a) + m.envelope(b)) + 1e-12);
    }
  }
}

TEST(PowerModel, EnvelopeCostSpecIsTheEnvelopePointwise) {
  // The spec is the one envelope implementation: exact (bitwise)
  // agreement with f beyond r_hat, with the textbook derivative
  // mu * alpha * x^(alpha - 1) — which pins the alpha == 2 / alpha == 3
  // pow-free shortcuts against std::pow — and the linear piece at or
  // below r_hat. Kinked, quadratic, kinked cubic and generic alpha.
  const PowerModel models[] = {
      PowerModel(1.0, 0.5, 2.0, 10.0),
      PowerModel::pure_speed_scaling(2.0),
      PowerModel(0.5, 1.0, 3.0, 8.0),
      PowerModel::pure_speed_scaling(2.5),
  };
  for (const PowerModel& m : models) {
    const EnvelopeCostSpec& env = m.envelope_cost();
    EXPECT_EQ(env.r_hat, m.r_hat());
    if (env.r_hat > 0.0) {
      EXPECT_EQ(env.env_slope, m.power_rate(env.r_hat));
    }
    for (int i = 0; i <= 48; ++i) {
      const double x = 0.125 * i;
      const std::string tag =
          "alpha " + std::to_string(m.alpha()) + " x " + std::to_string(x);
      EXPECT_EQ(m.envelope(x), env.value(x)) << tag;
      EXPECT_EQ(m.envelope_derivative(x), env.derivative(x)) << tag;
      if (x > env.r_hat) {
        EXPECT_EQ(env.value(x), m.f(x)) << tag;
        EXPECT_EQ(env.derivative(x),
                  m.mu() * m.alpha() * std::pow(x, m.alpha() - 1.0))
            << tag;
      } else {
        EXPECT_EQ(env.value(x), env.env_slope * x) << tag;
        EXPECT_EQ(env.derivative(x), env.env_slope) << tag;
      }
    }
  }
}

TEST(PowerModel, CapacityClampsRhat) {
  const PowerModel m(100.0, 1.0, 2.0, /*capacity=*/3.0);
  EXPECT_GT(m.r_opt(), 3.0);
  EXPECT_DOUBLE_EQ(m.r_hat(), 3.0);
  EXPECT_TRUE(m.within_capacity(3.0));
  EXPECT_FALSE(m.within_capacity(3.1));
  EXPECT_FALSE(m.within_capacity(-0.1));
}

TEST(PowerModel, Theorem3BoundValues) {
  // gamma(alpha) = 3/2 (1 + ((2/3)^alpha - 1)/alpha); gamma(2) = 3/2 * (1 - 5/18)
  const PowerModel m2(1.0, 1.0, 2.0);
  EXPECT_NEAR(m2.inapproximability_bound(),
              1.5 * (1.0 + (std::pow(2.0 / 3.0, 2.0) - 1.0) / 2.0), 1e-12);
  EXPECT_NEAR(m2.inapproximability_bound(), 1.0833333333333333, 1e-9);
  // The bound exceeds 1 (it is a hardness gap) and grows toward 3/2.
  double prev = 1.0;
  for (double alpha : {1.5, 2.0, 3.0, 4.0, 8.0, 16.0}) {
    const PowerModel m(1.0, 1.0, alpha);
    const double bound = m.inapproximability_bound();
    EXPECT_GT(bound, 1.0);
    EXPECT_LT(bound, 1.5);
    EXPECT_GT(bound, prev);  // increasing in alpha
    prev = bound;
  }
}

TEST(PowerModel, FRejectsNegativeRate) {
  const PowerModel m(1.0, 1.0, 2.0);
  EXPECT_THROW((void)m.f(-0.1), ContractViolation);
  EXPECT_THROW((void)m.power_rate(0.0), ContractViolation);
}

}  // namespace
}  // namespace dcn
