// Tests for HDR4ME: lambda* selection (Lemmas 4-5), the one-off solvers
// (Eqs. 34/42), the improvement guarantees under the lemma thresholds, and
// the PGD/FISTA iterative substrate.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "framework/deviation_model.h"
#include "hdr4me/lambda.h"
#include "hdr4me/pgd.h"
#include "hdr4me/recalibrate.h"

namespace hdldp {
namespace hdr4me {
namespace {

using framework::GaussianDeviation;

TEST(SoftThresholdTest, ScalarCases) {
  EXPECT_DOUBLE_EQ(SoftThreshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(-0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(SoftThreshold(2.0, 0.0), 2.0);
}

TEST(RecalibrateL1Test, AppliesEq34PerDimension) {
  const std::vector<double> theta = {3.0, -2.0, 0.4, 0.0};
  const std::vector<double> lambda = {1.0, 0.5, 1.0, 2.0};
  const auto out = RecalibrateL1(theta, lambda).value();
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], -1.5);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  EXPECT_DOUBLE_EQ(out[3], 0.0);
}

TEST(RecalibrateL2Test, AppliesEq42PerDimension) {
  const std::vector<double> theta = {3.0, -2.0, 0.4};
  const std::vector<double> lambda = {1.0, 0.5, 0.0};
  const auto out = RecalibrateL2(theta, lambda).value();
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], -1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.4);
}

TEST(RecalibrateSolversTest, Validate) {
  const std::vector<double> theta = {1.0};
  const std::vector<double> bad_len = {1.0, 2.0};
  const std::vector<double> negative = {-1.0};
  EXPECT_FALSE(RecalibrateL1(theta, bad_len).ok());
  EXPECT_FALSE(RecalibrateL1(theta, negative).ok());
  EXPECT_FALSE(RecalibrateL2({}, {}).ok());
}

// Solvers minimize their objectives: verify against a fine grid search.
TEST(SolverOptimalityTest, OneOffSolversMinimizeObjective) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<double> theta_hat = {rng.Uniform(-3.0, 3.0)};
    const std::vector<double> lambda = {rng.Uniform(0.0, 2.0)};
    for (const Regularizer reg : {Regularizer::kL1, Regularizer::kL2}) {
      std::vector<double> solution;
      switch (reg) {
        case Regularizer::kL1:
          solution = RecalibrateL1(theta_hat, lambda).value();
          break;
        case Regularizer::kL2:
          solution = RecalibrateL2(theta_hat, lambda).value();
          break;
      }
      const double best =
          Hdr4meObjective(solution, theta_hat, lambda, reg).value();
      for (double x = -4.0; x <= 4.0; x += 0.001) {
        const std::vector<double> candidate = {x};
        const double obj =
            Hdr4meObjective(candidate, theta_hat, lambda, reg).value();
        ASSERT_GE(obj, best - 1e-9)
            << "solver not optimal: reg=" << static_cast<int>(reg)
            << " theta_hat=" << theta_hat[0] << " lambda=" << lambda[0];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lambda selection.

TEST(LambdaL1Test, UsesSupDeviation) {
  const std::vector<GaussianDeviation> devs = {{0.5, 1.0}, {-0.25, 2.0}};
  LambdaOptions opts;
  opts.confidence_z = 3.0;
  const auto lambda = SelectLambdaL1(devs, opts).value();
  EXPECT_DOUBLE_EQ(lambda[0], 0.5 + 3.0);
  EXPECT_DOUBLE_EQ(lambda[1], 0.25 + 6.0);
}

TEST(LambdaL1Test, GatingZeroesQuietDimensions) {
  const std::vector<GaussianDeviation> devs = {{0.0, 0.1}, {0.0, 5.0}};
  LambdaOptions opts;
  opts.gate_on_threshold = true;
  const auto lambda = SelectLambdaL1(devs, opts).value();
  EXPECT_EQ(lambda[0], 0.0);   // sup = 0.3 <= 1: below Lemma 4 threshold.
  EXPECT_GT(lambda[1], 1.0);   // sup = 15 > 1: re-calibrated.
}

TEST(LambdaL2Test, EstimateReferenceDividesByTheta) {
  const std::vector<GaussianDeviation> devs = {{0.0, 1.0}};
  const std::vector<double> theta_hat = {0.5};
  LambdaOptions opts;
  opts.l2_reference = L2Reference::kEstimate;
  const auto lambda = SelectLambdaL2(devs, theta_hat, opts).value();
  // sup = 3, reference 0.5 -> lambda = 3 / (2 * 0.5) = 3.
  EXPECT_DOUBLE_EQ(lambda[0], 3.0);
}

TEST(LambdaL2Test, ModelBiasReferenceCapsWhenUnbiased) {
  // Unbiased mechanism: delta = 0, the paper's literal reading drives
  // lambda to the cap and the enhanced mean to ~0.
  const std::vector<GaussianDeviation> devs = {{0.0, 1.0}};
  const std::vector<double> theta_hat = {0.5};
  LambdaOptions opts;
  opts.l2_reference = L2Reference::kModelBias;
  const auto lambda = SelectLambdaL2(devs, theta_hat, opts).value();
  EXPECT_DOUBLE_EQ(lambda[0], kLambdaCap);
}

TEST(LambdaL2Test, GatingUsesThresholdTwo) {
  const std::vector<GaussianDeviation> devs = {{0.0, 0.5}, {0.0, 5.0}};
  const std::vector<double> theta_hat = {0.4, 0.4};
  LambdaOptions opts;
  opts.gate_on_threshold = true;
  const auto lambda = SelectLambdaL2(devs, theta_hat, opts).value();
  EXPECT_EQ(lambda[0], 0.0);  // sup = 1.5 <= 2.
  EXPECT_GT(lambda[1], 0.0);  // sup = 15 > 2.
}

TEST(LambdaTest, Validates) {
  const std::vector<GaussianDeviation> devs = {{0.0, 1.0}};
  const std::vector<GaussianDeviation> none;
  LambdaOptions opts;
  EXPECT_FALSE(SelectLambdaL1(none, opts).ok());
  opts.confidence_z = 0.0;
  EXPECT_FALSE(SelectLambdaL1(devs, opts).ok());
  opts.confidence_z = 3.0;
  const std::vector<double> wrong_len = {1.0, 2.0};
  EXPECT_FALSE(SelectLambdaL2(devs, wrong_len, opts).ok());
}

// ---------------------------------------------------------------------------
// The Lemma 4/5 improvement guarantees, tested deterministically with the
// exact supremum plugged in (the lemmas' own setting).

TEST(ImprovementGuaranteeTest, Lemma4L1ImprovesWhenDeviationExceedsOne) {
  for (const double theta_bar : {-0.9, -0.3, 0.0, 0.4, 1.0}) {
    for (const double dev : {1.01, 1.5, 3.0, -1.2, -2.5}) {
      if (std::abs(dev) <= 1.0) continue;
      const double theta_hat = theta_bar + dev;
      const double lambda = std::abs(dev);  // lambda* = sup|dev| exactly.
      const double theta_star = SoftThreshold(theta_hat, lambda);
      EXPECT_LT(std::abs(theta_star - theta_bar), std::abs(dev))
          << "theta_bar=" << theta_bar << " dev=" << dev;
    }
  }
}

TEST(ImprovementGuaranteeTest, Lemma5L2ImprovesWhenDeviationExceedsTwo) {
  for (const double theta_bar : {-0.9, -0.3, 0.4, 1.0}) {
    for (const double dev : {2.01, 2.5, 5.0, -2.2, -4.0}) {
      const double theta_hat = theta_bar + dev;
      const double lambda = std::abs(dev / (2.0 * theta_bar));
      const double theta_star = theta_hat / (1.0 + 2.0 * lambda);
      EXPECT_LT(std::abs(theta_star - theta_bar), std::abs(dev))
          << "theta_bar=" << theta_bar << " dev=" << dev;
    }
  }
}

TEST(ImprovementGuaranteeTest, HighNoiseRegimeImprovesL2Norm) {
  // Statistical version of Theorem 3: true means in [-1, 1], deviations
  // N(0, sigma^2) with sigma >> 1; L1 re-calibration with the framework's
  // 3-sigma lambda must shrink the error norm with overwhelming
  // probability.
  Rng rng(9);
  constexpr std::size_t kDims = 400;
  const double sigma = 4.0;
  std::vector<double> theta_bar(kDims);
  std::vector<double> theta_hat(kDims);
  for (std::size_t j = 0; j < kDims; ++j) {
    theta_bar[j] = rng.Uniform(-1.0, 1.0);
    theta_hat[j] = theta_bar[j] + rng.Gaussian(0.0, sigma);
  }
  const std::vector<GaussianDeviation> devs(kDims,
                                            GaussianDeviation{0.0, sigma});
  Hdr4meOptions opts;
  opts.regularizer = Regularizer::kL1;
  const auto result = Recalibrate(theta_hat, devs, opts).value();

  double err_before = 0.0;
  double err_after = 0.0;
  for (std::size_t j = 0; j < kDims; ++j) {
    err_before += Sq(theta_hat[j] - theta_bar[j]);
    err_after += Sq(result.enhanced_mean[j] - theta_bar[j]);
  }
  EXPECT_LT(err_after, err_before);
  // With lambda = 3 sigma, nearly every dimension collapses to zero.
  EXPECT_GT(result.zeroed_dims, kDims / 2);
}

TEST(RecalibrateTest, LowNoiseRegimeCanHurt) {
  // The paper's caveat: when deviations do not reach the thresholds, the
  // ungated re-calibration is harmful (Square wave in Figs. 4(c,f,i,l)).
  Rng rng(10);
  constexpr std::size_t kDims = 200;
  const double sigma = 0.01;
  std::vector<double> theta_bar(kDims);
  std::vector<double> theta_hat(kDims);
  for (std::size_t j = 0; j < kDims; ++j) {
    theta_bar[j] = rng.Uniform(0.5, 1.0);
    theta_hat[j] = theta_bar[j] + rng.Gaussian(0.0, sigma);
  }
  const std::vector<GaussianDeviation> devs(kDims,
                                            GaussianDeviation{0.0, sigma});
  Hdr4meOptions opts;
  opts.regularizer = Regularizer::kL1;
  opts.lambda.gate_on_threshold = false;
  const auto ungated = Recalibrate(theta_hat, devs, opts).value();
  double err_before = 0.0;
  double err_after = 0.0;
  for (std::size_t j = 0; j < kDims; ++j) {
    err_before += Sq(theta_hat[j] - theta_bar[j]);
    err_after += Sq(ungated.enhanced_mean[j] - theta_bar[j]);
  }
  EXPECT_GT(err_after, err_before);

  // Gating detects the low-deviation regime and leaves theta-hat alone.
  opts.lambda.gate_on_threshold = true;
  const auto gated = Recalibrate(theta_hat, devs, opts).value();
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(gated.enhanced_mean[j], theta_hat[j]);
  }
}

TEST(RecalibrateTest, Validates) {
  const std::vector<double> theta_hat = {0.1, 0.2};
  const std::vector<GaussianDeviation> one_dev = {{0.0, 1.0}};
  Hdr4meOptions opts;
  EXPECT_FALSE(Recalibrate(theta_hat, one_dev, opts).ok());
}

// ---------------------------------------------------------------------------
// PGD / FISTA.

TEST(PgdTest, StepOneReproducesClosedFormInOneIteration) {
  const std::vector<double> theta_hat = {3.0, -0.2, 1.5};
  const std::vector<double> lambda = {1.0, 1.0, 0.25};
  PgdOptions opts;
  opts.step_size = 1.0;
  for (const Regularizer reg : {Regularizer::kL1, Regularizer::kL2}) {
    const auto result = MinimizeProximal(theta_hat, lambda, reg, opts).value();
    EXPECT_LE(result.iterations, 2);
    const auto closed = reg == Regularizer::kL1
                            ? RecalibrateL1(theta_hat, lambda).value()
                            : RecalibrateL2(theta_hat, lambda).value();
    for (std::size_t j = 0; j < theta_hat.size(); ++j) {
      EXPECT_NEAR(result.solution[j], closed[j], 1e-12);
    }
  }
}

TEST(PgdTest, SmallStepsConvergeToClosedForm) {
  Rng rng(11);
  std::vector<double> theta_hat(50);
  std::vector<double> lambda(50);
  for (std::size_t j = 0; j < 50; ++j) {
    theta_hat[j] = rng.Uniform(-5.0, 5.0);
    lambda[j] = rng.Uniform(0.0, 3.0);
  }
  PgdOptions opts;
  opts.step_size = 0.3;
  for (const Regularizer reg : {Regularizer::kL1, Regularizer::kL2}) {
    const auto result = MinimizeProximal(theta_hat, lambda, reg, opts).value();
    EXPECT_TRUE(result.converged);
    std::vector<double> closed;
    switch (reg) {
      case Regularizer::kL1:
        closed = RecalibrateL1(theta_hat, lambda).value();
        break;
      case Regularizer::kL2:
        closed = RecalibrateL2(theta_hat, lambda).value();
        break;
    }
    for (std::size_t j = 0; j < theta_hat.size(); ++j) {
      EXPECT_NEAR(result.solution[j], closed[j], 1e-8);
    }
  }
}

TEST(PgdTest, FistaReachesLowerObjectiveAtFixedIterationBudget) {
  // Acceleration shows in the early phase: at a fixed small iteration
  // budget with a conservative step, FISTA's momentum must land at a
  // strictly lower objective than plain PGD. (At very tight tolerances on
  // this strongly convex objective plain PGD's linear rate catches up —
  // that regime is exercised by SmallStepsConvergeToClosedForm.)
  Rng rng(12);
  std::vector<double> theta_hat(100);
  std::vector<double> lambda(100);
  for (std::size_t j = 0; j < 100; ++j) {
    theta_hat[j] = rng.Uniform(-5.0, 5.0);
    lambda[j] = rng.Uniform(0.5, 2.0);
  }
  PgdOptions plain;
  plain.step_size = 0.05;
  plain.tolerance = 0.0;  // Never stop early; burn the whole budget.
  plain.max_iterations = 25;
  PgdOptions fast = plain;
  fast.accelerate = true;
  const auto slow_result =
      MinimizeProximal(theta_hat, lambda, Regularizer::kL1, plain).value();
  const auto fast_result =
      MinimizeProximal(theta_hat, lambda, Regularizer::kL1, fast).value();
  EXPECT_EQ(slow_result.iterations, 25);
  EXPECT_EQ(fast_result.iterations, 25);
  EXPECT_LT(fast_result.objective, slow_result.objective);
  // And both sit above (or at) the closed-form optimum.
  const auto closed = RecalibrateL1(theta_hat, lambda).value();
  const double best =
      Hdr4meObjective(closed, theta_hat, lambda, Regularizer::kL1).value();
  EXPECT_GE(fast_result.objective, best - 1e-9);
  EXPECT_GE(slow_result.objective, best - 1e-9);
}

TEST(PgdTest, ObjectiveMatchesManualComputation) {
  const std::vector<double> theta = {1.0, -2.0};
  const std::vector<double> theta_hat = {0.0, 0.0};
  const std::vector<double> lambda = {0.5, 1.0};
  // L1: 0.5*(1+4) + 0.5*1 + 1*2 = 2.5 + 2.5 = 5.0.
  EXPECT_DOUBLE_EQ(
      Hdr4meObjective(theta, theta_hat, lambda, Regularizer::kL1).value(),
      5.0);
  // L2: 2.5 + 0.5*1 + 1*4 = 7.0.
  EXPECT_DOUBLE_EQ(
      Hdr4meObjective(theta, theta_hat, lambda, Regularizer::kL2).value(),
      7.0);
}

TEST(PgdTest, Validates) {
  const std::vector<double> theta_hat = {1.0};
  const std::vector<double> lambda = {1.0};
  PgdOptions opts;
  opts.step_size = 0.0;
  EXPECT_FALSE(
      MinimizeProximal(theta_hat, lambda, Regularizer::kL1, opts).ok());
  opts.step_size = 1.5;
  EXPECT_FALSE(
      MinimizeProximal(theta_hat, lambda, Regularizer::kL1, opts).ok());
  opts.step_size = 0.5;
  opts.max_iterations = 0;
  EXPECT_FALSE(
      MinimizeProximal(theta_hat, lambda, Regularizer::kL1, opts).ok());
  const std::vector<double> neg_lambda = {-1.0};
  EXPECT_FALSE(
      MinimizeProximal(theta_hat, neg_lambda, Regularizer::kL1, {}).ok());
  const std::vector<double> bad_theta = {1.0, 2.0};
  EXPECT_FALSE(
      Hdr4meObjective(bad_theta, theta_hat, lambda, Regularizer::kL1).ok());
}

}  // namespace
}  // namespace hdr4me
}  // namespace hdldp
