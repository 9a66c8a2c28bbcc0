// Tests for the LDP variance-estimation extension (the paper's named
// future-work direction): split-population mean + second-moment halves,
// optional HDR4ME enhancement on both.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generators.h"
#include "hdr4me/variance.h"
#include "mech/registry.h"

namespace hdldp {
namespace hdr4me {
namespace {

data::Dataset MakeGaussianData(std::size_t users, std::size_t dims,
                               std::uint64_t seed) {
  Rng rng(seed);
  data::GaussianSpec spec;
  spec.num_users = users;
  spec.num_dims = dims;
  spec.stddev = 0.25;
  spec.high_fraction = 0.0;  // All dimensions centered at 0.
  return data::Generate(spec, &rng).value();
}

TEST(VarianceEstimationTest, Validates) {
  const auto data = MakeGaussianData(100, 4, 1);
  VarianceOptions opts;
  EXPECT_FALSE(RunVarianceEstimation(data, nullptr, opts).ok());
  Rng rng(2);
  const auto one_user =
      data::Generate(data::UniformSpec{.num_users = 1, .num_dims = 2},
                     &rng).value();
  EXPECT_FALSE(RunVarianceEstimation(
                   one_user, mech::MakeMechanism("laplace").value(), opts)
                   .ok());
}

TEST(VarianceEstimationTest, GenerousBudgetRecoversVariance) {
  const auto data = MakeGaussianData(60000, 4, 3);
  VarianceOptions opts;
  opts.total_epsilon = 16.0;
  opts.seed = 4;
  for (const auto name : {"laplace", "piecewise", "square_wave"}) {
    const auto result =
        RunVarianceEstimation(data, mech::MakeMechanism(name).value(), opts)
            .value();
    ASSERT_EQ(result.estimated_variance.size(), 4u);
    // Square wave aggregates raw biased reports (paper Eq. 17); at
    // eps/d = 4 its second-moment bias is ~ +0.11, which the variance
    // inherits. The unbiased mechanisms must land tightly.
    const double tolerance =
        std::string_view(name) == "square_wave" ? 0.15 : 0.05;
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(result.estimated_variance[j], result.true_variance[j],
                  tolerance)
          << name << " dim " << j;
      EXPECT_GE(result.estimated_variance[j], 0.0);
    }
  }
}

TEST(VarianceEstimationTest, SecondMomentLandsInUnitRange) {
  const auto data = MakeGaussianData(20000, 8, 5);
  VarianceOptions opts;
  opts.total_epsilon = 8.0;
  opts.seed = 6;
  const auto result =
      RunVarianceEstimation(data, mech::MakeMechanism("piecewise").value(),
                            opts)
          .value();
  for (const double s : result.estimated_second_moment) {
    EXPECT_GT(s, -0.2);
    EXPECT_LT(s, 1.2);
  }
}

TEST(VarianceEstimationTest, RecalibrationHelpsInHighDimensions) {
  // Many dimensions, thin budget: HDR4ME on both halves must reduce the
  // variance-estimate MSE (the true means are ~0 and true second moments
  // are small, so shrinkage pays on both pieces).
  const auto data = MakeGaussianData(20000, 100, 7);
  VarianceOptions opts;
  opts.total_epsilon = 0.8;
  opts.seed = 8;
  opts.recalibrate = false;
  const auto mech = mech::MakeMechanism("piecewise").value();
  const auto naive = RunVarianceEstimation(data, mech, opts).value();
  opts.recalibrate = true;
  opts.hdr4me.regularizer = Regularizer::kL1;
  const auto enhanced = RunVarianceEstimation(data, mech, opts).value();
  EXPECT_LT(enhanced.mse, naive.mse);
}

TEST(VarianceEstimationTest, DeterministicUnderSeed) {
  const auto data = MakeGaussianData(2000, 6, 9);
  VarianceOptions opts;
  opts.total_epsilon = 2.0;
  opts.seed = 10;
  const auto mech = mech::MakeMechanism("laplace").value();
  const auto a = RunVarianceEstimation(data, mech, opts).value();
  const auto b = RunVarianceEstimation(data, mech, opts).value();
  EXPECT_EQ(a.estimated_variance, b.estimated_variance);
  opts.seed = 11;
  const auto c = RunVarianceEstimation(data, mech, opts).value();
  EXPECT_NE(a.estimated_variance, c.estimated_variance);
}

TEST(VarianceEstimationTest, HalvesUseIndependentStreams) {
  // The mean and second-moment halves must not reuse the same noise:
  // with one user per half, identical streams would correlate the two
  // estimates perfectly across seeds. Check the intermediate estimates
  // differ from each other in a way that is not a fixed offset.
  const auto data = MakeGaussianData(4000, 3, 12);
  VarianceOptions opts;
  opts.total_epsilon = 4.0;
  const auto mech = mech::MakeMechanism("laplace").value();
  double prev_gap = 0.0;
  bool gap_varies = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    opts.seed = seed;
    const auto run = RunVarianceEstimation(data, mech, opts).value();
    const double gap =
        run.estimated_second_moment[0] - run.estimated_mean[0];
    if (seed > 1 && std::abs(gap - prev_gap) > 1e-6) gap_varies = true;
    prev_gap = gap;
  }
  EXPECT_TRUE(gap_varies);
}

// A persistent fault on base chunk 1 of a 3-chunk-plus population
// quarantines half A's chunk 1 (users 4096..6193) and half B's chunk 0
// (users 6194..10289, straddling base chunks 1 and 2). The ground truth
// must cover exactly the surviving users 0..4095 and 10290..n-1.
TEST(VarianceEstimationTest, QuarantineScoresAgainstSurvivingRows) {
  const std::size_t n = 3 * data::kUsersPerChunk + 100;
  const std::size_t d = 3;
  const auto dataset = MakeGaussianData(n, d, 13);
  const data::ResidentChunkSource resident(&dataset);
  data::FaultSchedule schedule;
  schedule.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 1});
  const data::FaultInjectingChunkSource faulty(&resident, schedule);
  VarianceOptions opts;
  opts.total_epsilon = 4.0;
  opts.seed = 14;
  opts.allow_missing_chunks = true;
  opts.recalibrate = true;
  const auto mech = mech::MakeMechanism("piecewise").value();
  const auto run = RunVarianceEstimation(faulty, mech, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().values.quarantined_chunks,
            std::vector<std::size_t>{1});
  EXPECT_EQ(run.value().squares.quarantined_chunks,
            std::vector<std::size_t>{0});

  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < data::kUsersPerChunk; ++i) rows.push_back(i);
  for (std::size_t i = n / 2 + data::kUsersPerChunk; i < n; ++i) {
    rows.push_back(i);
  }
  EXPECT_EQ(run.value().values.surviving_users +
                run.value().squares.surviving_users,
            rows.size());
  for (std::size_t j = 0; j < d; ++j) {
    double mean = 0.0;
    for (const std::size_t i : rows) mean += dataset.At(i, j);
    mean /= static_cast<double>(rows.size());
    double variance = 0.0;
    for (const std::size_t i : rows) {
      variance += (dataset.At(i, j) - mean) * (dataset.At(i, j) - mean);
    }
    variance /= static_cast<double>(rows.size());
    EXPECT_NEAR(run.value().true_variance[j], variance, 1e-12) << j;
  }
}

TEST(VarianceEstimationTest, WhollyQuarantinedHalfIsAPreconditionError) {
  // Faults on every chunk of half B: its second moment has no reports.
  const auto dataset = MakeGaussianData(2 * data::kUsersPerChunk, 2, 15);
  const data::ResidentChunkSource resident(&dataset);
  data::FaultSchedule schedule;
  schedule.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 1});
  const data::FaultInjectingChunkSource faulty(&resident, schedule);
  VarianceOptions opts;
  opts.allow_missing_chunks = true;
  const auto run = RunVarianceEstimation(
      faulty, mech::MakeMechanism("piecewise").value(), opts);
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace hdr4me
}  // namespace hdldp
