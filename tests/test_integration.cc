// Integration tests spanning the full stack: datasets -> protocol ->
// analytical framework -> HDR4ME. These are scaled-down versions of the
// paper's Section VI experiments with statistically safe assertions.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generators.h"
#include "framework/berry_esseen.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "hdr4me/recalibrate.h"
#include "mech/registry.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace {

using data::Dataset;
using framework::DeviationModel;
using framework::ModelDeviation;
using framework::ValueDistribution;

// Runs the protocol and HDR4ME end to end; returns {naive, L1, L2} MSE.
struct EndToEndMse {
  double naive = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
};

EndToEndMse RunEndToEnd(const Dataset& dataset, const std::string& mech_name,
                        double epsilon, std::uint64_t seed) {
  auto mechanism = mech::MakeMechanism(mech_name).value();
  protocol::PipelineOptions opts;
  opts.total_epsilon = epsilon;
  opts.report_dims = 0;  // All dimensions, the paper's stress setting.
  opts.seed = seed;
  const auto run =
      protocol::RunMeanEstimation(dataset, mechanism, opts).value();

  // Framework model from the empirical value distribution of the data
  // (shared across dimensions; the synthetic sets are homogeneous).
  std::vector<double> sample;
  sample.reserve(dataset.num_users());
  for (std::size_t i = 0; i < dataset.num_users(); ++i) {
    sample.push_back(dataset.At(i, 0));
  }
  const auto values = ValueDistribution::FromSamples(sample, 32).value();
  const double reports =
      static_cast<double>(dataset.num_users());  // m = d => r = n.
  const DeviationModel model =
      ModelDeviation(*mechanism, run.per_dim_epsilon, values, reports)
          .value();
  const std::vector<framework::GaussianDeviation> deviations(
      dataset.num_dims(), model.deviation);

  EndToEndMse out;
  out.naive = run.mse;
  hdr4me::Hdr4meOptions h;
  h.regularizer = hdr4me::Regularizer::kL1;
  const auto l1 =
      hdr4me::Recalibrate(run.estimated_mean, deviations, h).value();
  out.l1 = protocol::MeanSquaredError(l1.enhanced_mean, run.true_mean).value();
  h.regularizer = hdr4me::Regularizer::kL2;
  const auto l2 =
      hdr4me::Recalibrate(run.estimated_mean, deviations, h).value();
  out.l2 = protocol::MeanSquaredError(l2.enhanced_mean, run.true_mean).value();
  return out;
}

TEST(FrameworkVsExperimentTest, PredictedMseMatchesMeasured) {
  // E[MSE] = (1/d) sum_j (delta_j^2 + sigma_j^2) under the Lemma 2/3
  // model; a single run concentrates around it for moderate d.
  Rng rng(1);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 20000, .num_dims = 100},
                     &rng).value();
  for (const auto name : {"laplace", "piecewise", "duchi", "scdf"}) {
    auto mechanism = mech::MakeMechanism(name).value();
    protocol::PipelineOptions opts;
    opts.total_epsilon = 2.0;
    opts.report_dims = 20;
    opts.seed = 2;
    const auto run =
        protocol::RunMeanEstimation(dataset, mechanism, opts).value();

    std::vector<double> sample;
    for (std::size_t i = 0; i < 2000; ++i) sample.push_back(dataset.At(i, 0));
    const auto values = ValueDistribution::FromSamples(sample, 32).value();
    const double expected_reports = 20000.0 * 20.0 / 100.0;
    const auto model = ModelDeviation(*mechanism, run.per_dim_epsilon, values,
                                      expected_reports)
                           .value();
    const double predicted =
        Sq(model.deviation.mean) + Sq(model.deviation.stddev);
    // Chi-square concentration: 100 dims keeps a single run within ~50%.
    EXPECT_GT(run.mse, 0.5 * predicted) << name;
    EXPECT_LT(run.mse, 1.7 * predicted) << name;
  }
}

TEST(FrameworkVsExperimentTest, SamplingMoreDimsAtFixedBudgetIsAWash) {
  // r = nm/d and eps_dim = eps/m: variance per dim ~ m * d / (n eps^2)
  // for Laplace, so doubling m doubles per-dim variance contribution but
  // doubles reports too; the framework captures the net effect.
  Rng rng(3);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 30000, .num_dims = 40},
                     &rng).value();
  auto mechanism = mech::MakeMechanism("laplace").value();
  const auto values = ValueDistribution::Point(0.0);
  for (const std::size_t m : {5u, 10u, 20u}) {
    const double eps_dim = 1.0 / static_cast<double>(m);
    const double reports = 30000.0 * static_cast<double>(m) / 40.0;
    const auto model =
        ModelDeviation(*mechanism, eps_dim, values, reports).value();
    // sigma^2 = 8 m^2 / (n m / d) = 8 m d / n.
    EXPECT_NEAR(Sq(model.deviation.stddev),
                8.0 * static_cast<double>(m) * 40.0 / 30000.0,
                1e-9)
        << m;
  }
}

TEST(Hdr4meEndToEndTest, ImprovesLaplaceAndPiecewiseInHighDimensions) {
  // Scaled-down Fig. 4(a)-(b): Gaussian dataset, small budget, m = d.
  Rng rng(4);
  data::GaussianSpec spec;
  spec.num_users = 20000;
  spec.num_dims = 100;
  const auto dataset = data::Generate(spec, &rng).value();
  for (const auto name : {"laplace", "piecewise"}) {
    const auto mse = RunEndToEnd(dataset, name, 0.4, 5);
    EXPECT_LT(mse.l1, mse.naive) << name;
    EXPECT_LT(mse.l2, mse.naive) << name;
  }
}

TEST(Hdr4meEndToEndTest, SquareWaveLowNoiseIsNotHelped) {
  // Scaled-down Fig. 4(c): Square wave's concentrated perturbation keeps
  // deviations below the lemma thresholds; naive aggregation stays
  // competitive and L2 in particular cannot beat it at large budgets.
  Rng rng(6);
  data::GaussianSpec spec;
  spec.num_users = 20000;
  spec.num_dims = 100;
  const auto dataset = data::Generate(spec, &rng).value();
  const auto mse = RunEndToEnd(dataset, "square_wave", 1000.0, 7);
  EXPECT_LT(mse.naive, 1e-3);          // Naive is already excellent.
  EXPECT_GE(mse.l2, mse.naive * 0.9);  // L2 brings no real gain.
}

TEST(Hdr4meEndToEndTest, MseShrinksAsBudgetGrows) {
  // The Fig. 4 x-axis trend, one mechanism, three budgets.
  Rng rng(8);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 15000, .num_dims = 60},
                     &rng).value();
  auto mechanism = mech::MakeMechanism("piecewise").value();
  double previous = 1e300;
  for (const double eps : {0.2, 0.8, 3.2}) {
    protocol::PipelineOptions opts;
    opts.total_epsilon = eps;
    opts.seed = 9;
    const auto run =
        protocol::RunMeanEstimation(dataset, mechanism, opts).value();
    EXPECT_LT(run.mse, previous) << eps;
    previous = run.mse;
  }
}

TEST(Hdr4meEndToEndTest, DimensionalityTrendMatchesFig5) {
  // Scaled-down Fig. 5: COV-19 surrogate at eps = 0.8; L1 beats naive at
  // every dimensionality, and higher d hurts naive more than L1.
  Rng rng(10);
  data::CorrelatedSpec spec;
  spec.num_users = 10000;
  spec.num_dims = 50;
  const auto base = data::Generate(spec, &rng).value();
  const auto small = RunEndToEnd(base, "piecewise", 0.8, 11);
  const auto large = RunEndToEnd(base.ResampleDimensions(200, &rng).value(),
                                 "piecewise", 0.8, 11);
  EXPECT_LT(small.l1, small.naive);
  EXPECT_LT(large.l1, large.naive);
  EXPECT_GT(large.naive, small.naive);
}

TEST(BerryEsseenIntegrationTest, BoundShrinksAlongTheProtocol) {
  // More users => more reports per dimension => tighter CLT error.
  auto mechanism = mech::MakeMechanism("piecewise").value();
  const auto values = ValueDistribution::Point(0.3);
  const auto small =
      ModelDeviation(*mechanism, 0.1, values, 500.0).value();
  const auto large =
      ModelDeviation(*mechanism, 0.1, values, 50000.0).value();
  const double bound_small = framework::BerryEsseenBound(small).value();
  const double bound_large = framework::BerryEsseenBound(large).value();
  EXPECT_LT(bound_large, bound_small);
  EXPECT_NEAR(bound_small / bound_large, 10.0, 1e-6);
}

// The marginal -> deviation loop MarginalDeviations replaced: 16-point
// marginals of rows [first, first + rows) read by Dataset::At, r_j =
// `reports`.
std::vector<framework::GaussianDeviation> HandDeviations(
    const Dataset& data, std::size_t first, std::size_t rows, double reports,
    const mech::Mechanism& mechanism, double eps_per_dim) {
  std::vector<framework::GaussianDeviation> deviations;
  std::vector<double> column(rows);
  for (std::size_t j = 0; j < data.num_dims(); ++j) {
    for (std::size_t i = 0; i < rows; ++i) column[i] = data.At(first + i, j);
    deviations.push_back(
        ModelDeviation(mechanism, eps_per_dim,
                       ValueDistribution::FromSamples(column, 16).value(),
                       reports)
            .value()
            .deviation);
  }
  return deviations;
}

void ExpectSameDeviations(
    const std::vector<framework::GaussianDeviation>& got,
    const std::vector<framework::GaussianDeviation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(got[j].mean, want[j].mean) << j;
    EXPECT_EQ(got[j].stddev, want[j].stddev) << j;
  }
}

Dataset GaussianData(std::size_t users, std::size_t dims, std::uint64_t seed) {
  Rng rng(seed);
  return data::Generate(
             data::GaussianSpec{.num_users = users, .num_dims = dims}, &rng)
      .value();
}

TEST(MarginalDeviationsTest, MatchesTheHandLoopBelowTheRowCap) {
  const Dataset dataset = GaussianData(1500, 6, 12);
  const auto mechanism = mech::MakeMechanism("piecewise").value();
  const auto got = hdr4me::MarginalDeviations(
      data::ResidentChunkSource(&dataset), {}, 0, *mechanism, 0.05);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameDeviations(got.value(),
                       HandDeviations(dataset, 0, 1500, 1500.0, *mechanism,
                                      0.05));
}

TEST(MarginalDeviationsTest, MatchesTheHandLoopAcrossChunksAndStopsEarly) {
  const Dataset dataset = GaussianData(2 * data::kUsersPerChunk + 333, 5, 13);
  const data::ResidentChunkSource resident(&dataset);
  // Chunk 2 fails every pull: the first 2000 rows all lie in chunk 0, so
  // the gather must stop before reaching it.
  data::FaultSchedule schedule;
  schedule.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 2});
  const data::FaultInjectingChunkSource faulty(&resident, schedule);
  const auto mechanism = mech::MakeMechanism("laplace").value();
  const auto got =
      hdr4me::MarginalDeviations(faulty, {}, 0, *mechanism, 0.1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameDeviations(
      got.value(),
      HandDeviations(dataset, 0, 2000,
                     static_cast<double>(dataset.num_users()), *mechanism,
                     0.1));
  EXPECT_EQ(faulty.attempts(1), 0u);
  EXPECT_EQ(faulty.attempts(2), 0u);
}

TEST(MarginalDeviationsTest, QuarantinedChunksAreSkippedAndUncounted) {
  const std::size_t users = 2 * data::kUsersPerChunk + 500;
  const Dataset dataset = GaussianData(users, 4, 14);
  const auto mechanism = mech::MakeMechanism("piecewise").value();
  // Sampled m = 2 of d = 4: r_j = surviving * 2 / 4, and the rows come
  // from chunk 1 onward.
  const std::size_t surviving = users - data::kUsersPerChunk;
  const auto got = hdr4me::MarginalDeviations(
      data::ResidentChunkSource(&dataset), {0}, 2, *mechanism, 0.2);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameDeviations(
      got.value(),
      HandDeviations(dataset, data::kUsersPerChunk, 2000,
                     static_cast<double>(surviving) * 2.0 / 4.0, *mechanism,
                     0.2));
}

TEST(MarginalDeviationsTest, EveryChunkQuarantinedIsAPreconditionError) {
  const Dataset dataset = GaussianData(data::kUsersPerChunk + 10, 3, 15);
  const auto mechanism = mech::MakeMechanism("piecewise").value();
  const auto got = hdr4me::MarginalDeviations(
      data::ResidentChunkSource(&dataset), {0, 1}, 0, *mechanism, 0.2);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MarginalDeviationsTest, BitIdenticalForEveryMaxConcurrency) {
  // 37 dimensions: two full 16-column blocks and a partial one.
  const std::size_t users = 2 * data::kUsersPerChunk + 500;
  const Dataset dataset = GaussianData(users, 37, 16);
  const data::ResidentChunkSource resident(&dataset);
  const auto mechanism = mech::MakeMechanism("piecewise").value();
  const std::size_t pool = ThreadPool::Shared().num_threads() + 1;
  const auto whole = HandDeviations(dataset, 0, 2000,
                                    static_cast<double>(users), *mechanism,
                                    0.05);
  const auto without_first = HandDeviations(
      dataset, data::kUsersPerChunk, 2000,
      static_cast<double>(users - data::kUsersPerChunk), *mechanism, 0.05);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, pool}) {
    SCOPED_TRACE(threads);
    const auto got = hdr4me::MarginalDeviations(
        resident, {}, 0, *mechanism, 0.05, {-1.0, 1.0}, threads);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameDeviations(got.value(), whole);
    const auto quarantined = hdr4me::MarginalDeviations(
        resident, {0}, 0, *mechanism, 0.05, {-1.0, 1.0}, threads);
    ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
    ExpectSameDeviations(quarantined.value(), without_first);
  }
}

TEST(MarginalDeviationsTest, ReportsTheLowestFailingDimension) {
  // Dimension 5 is out of the mechanism's domain (ModelDeviation fails),
  // dimension 40 holds a NaN (FromSamples fails); they sit in different
  // blocks. Swapping them swaps the error.
  const auto mechanism = mech::MakeMechanism("piecewise").value();
  const std::size_t pool = ThreadPool::Shared().num_threads() + 1;
  for (const bool nan_first : {false, true}) {
    Dataset dataset = GaussianData(2500, 48, 17);
    const std::size_t low = 5;
    const std::size_t high = 40;
    for (std::size_t i = 0; i < dataset.num_users(); ++i) {
      dataset.Set(i, nan_first ? high : low, 5.0);
    }
    dataset.Set(1999, nan_first ? low : high,
                std::numeric_limits<double>::quiet_NaN());
    const std::string want =
        nan_first ? "non-finite sample" : "outside native domain";
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, pool}) {
      const auto got =
          hdr4me::MarginalDeviations(data::ResidentChunkSource(&dataset), {},
                                     0, *mechanism, 0.05, {-1.0, 1.0},
                                     threads);
      ASSERT_FALSE(got.ok());
      EXPECT_NE(got.status().ToString().find(want), std::string::npos)
          << threads << ": " << got.status().ToString();
    }
  }
}

TEST(DeterminismTest, WholeStackIsReproducible) {
  Rng rng(14);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 2000, .num_dims = 20},
                     &rng).value();
  const auto a = RunEndToEnd(dataset, "piecewise", 0.5, 15);
  const auto b = RunEndToEnd(dataset, "piecewise", 0.5, 15);
  EXPECT_EQ(a.naive, b.naive);
  EXPECT_EQ(a.l1, b.l1);
  EXPECT_EQ(a.l2, b.l2);
}

}  // namespace
}  // namespace hdldp
