// Tests for support-recovery metrics and the framework/HDR4ME
// convenience APIs added on top of the core reproduction (PredictedMse,
// CoverageInterval, Theorem 3/4 improvement bounds).

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "framework/deviation_model.h"
#include "hdr4me/recalibrate.h"
#include "mech/registry.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace {

// ---------------------------------------------------------------------------
// Support recovery.

TEST(SupportRecoveryTest, PerfectRecovery) {
  const std::vector<double> truth = {0.9, 0.0, -0.8, 0.0};
  const auto r =
      protocol::EvaluateSupportRecovery(truth, truth, 0.1).value();
  EXPECT_EQ(r.precision, 1.0);
  EXPECT_EQ(r.recall, 1.0);
  EXPECT_EQ(r.f1, 1.0);
  EXPECT_EQ(r.true_active, 2u);
  EXPECT_EQ(r.estimated_active, 2u);
}

TEST(SupportRecoveryTest, PartialRecovery) {
  const std::vector<double> truth = {0.9, 0.0, -0.8, 0.0};
  const std::vector<double> estimate = {0.5, 0.4, 0.0, 0.0};
  // Estimate active: {0, 1}; truth active: {0, 2}; hit: {0}.
  const auto r =
      protocol::EvaluateSupportRecovery(estimate, truth, 0.1).value();
  EXPECT_DOUBLE_EQ(r.precision, 0.5);
  EXPECT_DOUBLE_EQ(r.recall, 0.5);
  EXPECT_DOUBLE_EQ(r.f1, 0.5);
}

TEST(SupportRecoveryTest, DegenerateCases) {
  const std::vector<double> zeros = {0.0, 0.0};
  const std::vector<double> ones = {1.0, 1.0};
  const auto both_empty =
      protocol::EvaluateSupportRecovery(zeros, zeros, 0.5).value();
  EXPECT_EQ(both_empty.precision, 1.0);
  EXPECT_EQ(both_empty.recall, 1.0);
  const auto all_miss =
      protocol::EvaluateSupportRecovery(zeros, ones, 0.5).value();
  EXPECT_EQ(all_miss.recall, 0.0);
  EXPECT_EQ(all_miss.precision, 0.0);
  EXPECT_EQ(all_miss.f1, 0.0);
  EXPECT_FALSE(protocol::EvaluateSupportRecovery(zeros, ones, -1.0).ok());
  EXPECT_FALSE(protocol::EvaluateSupportRecovery(zeros, {1.0}, 0.5).ok());
}

// ---------------------------------------------------------------------------
// Framework conveniences.

TEST(PredictedMseTest, MatchesManualSum) {
  const std::vector<framework::GaussianDeviation> devs = {{0.1, 2.0},
                                                          {-0.3, 1.0}};
  // (0.01 + 4 + 0.09 + 1) / 2 = 2.55.
  EXPECT_NEAR(framework::PredictedMse(devs).value(), 2.55, 1e-12);
  EXPECT_FALSE(framework::PredictedMse({}).ok());
}

TEST(CoverageIntervalTest, MatchesNormalQuantiles) {
  const framework::GaussianDeviation g{0.5, 2.0};
  const auto ci = g.CoverageInterval(0.95).value();
  EXPECT_NEAR(ci.lo, 0.5 - 1.959963984540054 * 2.0, 1e-6);
  EXPECT_NEAR(ci.hi, 0.5 + 1.959963984540054 * 2.0, 1e-6);
  // The interval indeed carries the requested mass.
  EXPECT_NEAR(g.Cdf(ci.hi) - g.Cdf(ci.lo), 0.95, 1e-9);
  EXPECT_FALSE(g.CoverageInterval(0.0).ok());
  EXPECT_FALSE(g.CoverageInterval(1.0).ok());
}

TEST(ImprovementProbabilityTest, TracksNoiseScale) {
  // Tiny noise: Lemma thresholds essentially never exceeded.
  const std::vector<framework::GaussianDeviation> quiet(
      20, framework::GaussianDeviation{0.0, 0.05});
  EXPECT_LT(hdr4me::ImprovementProbabilityL1(quiet).value(), 1e-9);
  EXPECT_LT(hdr4me::ImprovementProbabilityL2(quiet).value(), 1e-9);
  // Huge noise: bound approaches 1, and the L1 threshold (1) is easier to
  // exceed than the L2 threshold (2).
  const std::vector<framework::GaussianDeviation> loud(
      20, framework::GaussianDeviation{0.0, 1.5});
  const double p1 = hdr4me::ImprovementProbabilityL1(loud).value();
  const double p2 = hdr4me::ImprovementProbabilityL2(loud).value();
  EXPECT_GT(p1, 0.99);
  EXPECT_GT(p1, p2);
  EXPECT_FALSE(hdr4me::ImprovementProbabilityL1({}).ok());
}

TEST(PredictedMseTest, AgreesWithPipelineOnLaplace) {
  // Cross-check the prediction against a real run (statistical).
  Rng rng(2);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 30000, .num_dims = 64},
                     &rng).value();
  const auto mech = mech::MakeMechanism("laplace").value();
  protocol::PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 3;
  const auto run = protocol::RunMeanEstimation(dataset, mech, opts).value();
  const auto model =
      framework::ModelDeviation(*mech, run.per_dim_epsilon,
                                framework::ValueDistribution::Point(0.0),
                                static_cast<double>(dataset.num_users()))
          .value();
  const std::vector<framework::GaussianDeviation> devs(64, model.deviation);
  const double predicted = framework::PredictedMse(devs).value();
  EXPECT_GT(run.mse, 0.5 * predicted);
  EXPECT_LT(run.mse, 1.8 * predicted);
}

}  // namespace
}  // namespace hdldp
