// Tests for the parallel mean-estimation pipeline and aggregator merging.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data/generators.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace protocol {
namespace {

TEST(AggregatorMergeTest, MergeEqualsSequentialConsume) {
  auto whole = MeanAggregator::Create(3, mech::DomainMap()).value();
  auto left = MeanAggregator::Create(3, mech::DomainMap()).value();
  auto right = MeanAggregator::Create(3, mech::DomainMap()).value();
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto dim = static_cast<std::uint32_t>(rng.UniformInt(3));
    const double v = rng.Uniform(-1.0, 1.0);
    whole.Consume(dim, v);
    (i % 2 == 0 ? left : right).Consume(dim, v);
  }
  ASSERT_TRUE(left.Merge(right).ok());
  EXPECT_EQ(left.TotalReports(), whole.TotalReports());
  const auto merged_mean = left.EstimatedMean();
  const auto whole_mean = whole.EstimatedMean();
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(merged_mean[j], whole_mean[j], 1e-12) << j;
    EXPECT_EQ(left.ReportCount(j), whole.ReportCount(j));
  }
}

TEST(AggregatorMergeTest, RejectsDimensionMismatch) {
  auto a = MeanAggregator::Create(3, mech::DomainMap()).value();
  const auto b = MeanAggregator::Create(4, mech::DomainMap()).value();
  EXPECT_FALSE(a.Merge(b).ok());
}

class ParallelPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2);
    dataset_ = std::make_unique<data::Dataset>(
        data::Generate(data::UniformSpec{.num_users = 30000, .num_dims = 8},
                       &rng).value());
  }
  std::unique_ptr<data::Dataset> dataset_;
};

TEST_F(ParallelPipelineTest, DeterministicForFixedThreadCount) {
  PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 3;
  opts.num_threads = 4;
  const auto mech = mech::MakeMechanism("piecewise").value();
  const auto a = RunMeanEstimation(*dataset_, mech, opts).value();
  const auto b = RunMeanEstimation(*dataset_, mech, opts).value();
  EXPECT_EQ(a.estimated_mean, b.estimated_mean);
  EXPECT_EQ(a.report_counts, b.report_counts);
}

TEST_F(ParallelPipelineTest, BitIdenticalForAnyThreadCount) {
  // Streams derive from (seed, chunk_index) and partial aggregates merge
  // in chunk order, so the estimate is a pure function of (data, seed):
  // every num_threads value must reproduce the serial result bit for bit.
  PipelineOptions serial;
  serial.total_epsilon = 4.0;
  serial.report_dims = 4;
  serial.seed = 5;
  const auto mech = mech::MakeMechanism("laplace").value();
  const auto s = RunMeanEstimation(*dataset_, mech, serial).value();
  for (const std::size_t threads : {2u, 3u, 8u, 64u}) {
    PipelineOptions parallel = serial;
    parallel.num_threads = threads;
    const auto p = RunMeanEstimation(*dataset_, mech, parallel).value();
    EXPECT_EQ(s.estimated_mean, p.estimated_mean) << threads;
    EXPECT_EQ(s.report_counts, p.report_counts) << threads;
    EXPECT_EQ(s.mse, p.mse) << threads;
  }
  for (std::size_t j = 0; j < dataset_->num_dims(); ++j) {
    EXPECT_NEAR(s.estimated_mean[j], s.true_mean[j], 0.2) << j;
  }
  std::int64_t total = 0;
  for (const auto r : s.report_counts) total += r;
  EXPECT_EQ(total, 30000 * 4);
  EXPECT_LT(s.mse, 0.02);
}

TEST_F(ParallelPipelineTest, DenseAllDimsPathInvariantToThreadCount) {
  // report_dims = 0 (all d) exercises the dense lane/ConsumeDense fast
  // path; it must hold the same thread-count invariance.
  PipelineOptions serial;
  serial.total_epsilon = 8.0;
  serial.seed = 12;
  const auto mech = mech::MakeMechanism("square_wave").value();
  const auto s = RunMeanEstimation(*dataset_, mech, serial).value();
  PipelineOptions parallel = serial;
  parallel.num_threads = 5;
  const auto p = RunMeanEstimation(*dataset_, mech, parallel).value();
  EXPECT_EQ(s.estimated_mean, p.estimated_mean);
  EXPECT_EQ(s.report_counts, p.report_counts);
  std::int64_t total = 0;
  for (const auto r : s.report_counts) total += r;
  EXPECT_EQ(total, 30000 * 8);
}

TEST_F(ParallelPipelineTest, ThreadCountsBeyondUsersClamp) {
  Rng rng(6);
  const auto tiny =
      data::Generate(data::UniformSpec{.num_users = 3, .num_dims = 2},
                     &rng).value();
  PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.num_threads = 16;
  const auto mech = mech::MakeMechanism("duchi").value();
  const auto run = RunMeanEstimation(tiny, mech, opts).value();
  std::int64_t total = 0;
  for (const auto r : run.report_counts) total += r;
  EXPECT_EQ(total, 3 * 2);
}

TEST_F(ParallelPipelineTest, WorksForEveryMechanism) {
  PipelineOptions opts;
  opts.total_epsilon = 8.0;
  opts.report_dims = 2;
  opts.num_threads = 2;
  opts.seed = 7;
  for (const auto name : mech::RegisteredMechanismNames()) {
    const auto mech = mech::MakeMechanism(name).value();
    const auto run = RunMeanEstimation(*dataset_, mech, opts).value();
    EXPECT_LT(run.mse, 0.5) << name;
  }
}

}  // namespace
}  // namespace protocol
}  // namespace hdldp
