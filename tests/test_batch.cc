// Tests of the batched ingestion path: Client::ReportBatch and
// MeanAggregator::ConsumeBatch must be
// bit-identical to the scalar path under a fixed seed (the pipeline runs
// the batched path, so this equivalence is what keeps historical
// fixed-seed results stable), and ConsumeBatch must reject malformed
// batches without mutating state.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"
#include "protocol/client.h"
#include "protocol/report.h"

namespace hdldp {
namespace protocol {
namespace {

mech::MechanismPtr Mech(std::string_view name) {
  return mech::MakeMechanism(name).value();
}

TEST(ReportBatchTest, BitIdenticalToSequentialReports) {
  for (const auto name : mech::RegisteredMechanismNames()) {
    SCOPED_TRACE(std::string(name));
    constexpr std::size_t kUsers = 40;
    constexpr std::size_t kDims = 16;
    ClientOptions opts;
    opts.total_epsilon = 2.0;
    opts.report_dims = 5;
    const auto client = Client::Create(Mech(name), kDims, opts).value();

    Rng data_rng(7);
    std::vector<double> tuples(kUsers * kDims);
    for (double& v : tuples) v = data_rng.Uniform(-1.0, 1.0);

    Rng scalar_rng(99);
    std::vector<UserReport> reports;
    for (std::size_t i = 0; i < kUsers; ++i) {
      reports.push_back(
          client
              .Report(std::span<const double>(tuples).subspan(i * kDims, kDims),
                      &scalar_rng)
              .value());
    }

    Rng batch_rng(99);
    ReportBatch batch;
    ASSERT_TRUE(client.ReportBatch(tuples, &batch_rng, &batch).ok());
    ASSERT_EQ(batch.size(), kUsers * opts.report_dims);

    std::size_t k = 0;
    for (const UserReport& report : reports) {
      for (const DimensionReport& entry : report.entries) {
        ASSERT_EQ(entry.dimension, batch.dimensions[k]);
        ASSERT_EQ(entry.value, batch.values[k]);
        ++k;
      }
    }
    EXPECT_EQ(scalar_rng.Next(), batch_rng.Next());
  }
}

TEST(ReportBatchTest, AppendsAcrossCallsAndValidatesShape) {
  ClientOptions opts;
  opts.report_dims = 2;
  const auto client = Client::Create(Mech("piecewise"), 4, opts).value();
  std::vector<double> tuples(8, 0.25);
  Rng rng(5);
  ReportBatch batch;
  ASSERT_TRUE(client.ReportBatch(tuples, &rng, &batch).ok());
  EXPECT_EQ(batch.size(), 4u);  // 2 users x m=2.
  ASSERT_TRUE(client.ReportBatch(tuples, &rng, &batch).ok());
  EXPECT_EQ(batch.size(), 8u);  // Appended, not replaced.

  EXPECT_FALSE(client.ReportBatch(std::span<const double>(tuples).first(7),
                                  &rng, &batch)
                   .ok());  // Not a multiple of d.
  EXPECT_FALSE(client.ReportBatch(tuples, &rng, nullptr).ok());
}

TEST(ConsumeBatchTest, MatchesScalarConsumePlusMergeBitExactly) {
  constexpr std::size_t kDims = 12;
  constexpr std::size_t kEntries = 4096;
  Rng rng(2024);
  std::vector<std::uint32_t> dims(kEntries);
  std::vector<double> values(kEntries);
  for (std::size_t k = 0; k < kEntries; ++k) {
    dims[k] = static_cast<std::uint32_t>(rng.UniformInt(kDims));
    values[k] = rng.Uniform(-3.0, 3.0);
  }

  // Scalar reference: one aggregator consuming every entry in order.
  auto scalar = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  for (std::size_t k = 0; k < kEntries; ++k) scalar.Consume(dims[k], values[k]);

  // Batched: two shard aggregators splitting the stream, then Merge —
  // the pipeline's worker-reduction shape.
  auto shard_a = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  auto shard_b = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  const std::size_t half = kEntries / 2;
  ASSERT_TRUE(shard_a
                  .ConsumeBatch(std::span<const std::uint32_t>(dims).first(half),
                                std::span<const double>(values).first(half))
                  .ok());
  ASSERT_TRUE(
      shard_b
          .ConsumeBatch(std::span<const std::uint32_t>(dims).subspan(half),
                        std::span<const double>(values).subspan(half))
          .ok());
  ASSERT_TRUE(shard_a.Merge(shard_b).ok());

  ASSERT_EQ(scalar.TotalReports(), shard_a.TotalReports());
  const std::vector<double> scalar_mean = scalar.EstimatedMean();
  const std::vector<double> batch_mean = shard_a.EstimatedMean();
  ASSERT_EQ(scalar_mean.size(), batch_mean.size());
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(scalar.ReportCount(j), shard_a.ReportCount(j));
  }
  // NeumaierSum::Merge folds the shard total in one Add, so the merged sum
  // is not guaranteed bit-equal to the sequential sum in general — but for
  // this fixed stream the estimates must agree to full precision.
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_DOUBLE_EQ(scalar_mean[j], batch_mean[j]);
  }

  // Single aggregator, whole stream in one batch: exactly the scalar order,
  // so bit-identical.
  auto whole = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  ASSERT_TRUE(whole.ConsumeBatch(dims, values).ok());
  const std::vector<double> whole_mean = whole.EstimatedMean();
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(scalar_mean[j], whole_mean[j]);
  }
}

TEST(ConsumeBatchTest, RejectsMalformedBatchWithoutMutating) {
  auto agg = MeanAggregator::Create(3, mech::DomainMap()).value();
  const std::vector<std::uint32_t> dims{0, 1, 7};  // 7 out of range.
  const std::vector<double> values{0.1, 0.2, 0.3};
  EXPECT_FALSE(agg.ConsumeBatch(dims, values).ok());
  EXPECT_EQ(agg.TotalReports(), 0);  // Whole batch rejected atomically.

  const std::vector<std::uint32_t> short_dims{0, 1};
  EXPECT_FALSE(agg.ConsumeBatch(short_dims, values).ok());  // Size mismatch.
  EXPECT_EQ(agg.TotalReports(), 0);

  ReportBatch batch;
  batch.dimensions = {0, 2};
  batch.values = {1.0, -1.0};
  EXPECT_TRUE(agg.ConsumeBatch(batch).ok());
  EXPECT_EQ(agg.TotalReports(), 2);
}

// ConsumeScattered is ConsumeBatch with a cache-bucketed fold: same
// validation, bit-identical per-dimension accumulation order. The v3
// sampled engine driver feeds whole cross-user blocks through it, so
// this equivalence is what keeps v3 estimates independent of block
// geometry details like the bucket width.
TEST(ConsumeScatteredTest, BitIdenticalToConsumeBatch) {
  Rng rng(77);
  // Both fold regimes: single-bucket (d <= 512) and multi-bucket.
  for (const std::size_t dims_count : {std::size_t{100}, std::size_t{3000}}) {
    SCOPED_TRACE(dims_count);
    constexpr std::size_t kEntries = 40000;
    std::vector<std::uint32_t> dims(kEntries);
    std::vector<double> values(kEntries);
    for (std::size_t k = 0; k < kEntries; ++k) {
      dims[k] = static_cast<std::uint32_t>(rng.UniformInt(dims_count));
      values[k] = rng.Uniform(-3.0, 3.0);
    }
    auto batch = MeanAggregator::Create(dims_count, mech::DomainMap()).value();
    auto scattered =
        MeanAggregator::Create(dims_count, mech::DomainMap()).value();
    ASSERT_TRUE(batch.ConsumeBatch(dims, values).ok());
    ASSERT_TRUE(scattered.ConsumeScattered(dims, values).ok());
    EXPECT_EQ(batch.EstimatedMean(), scattered.EstimatedMean());
    EXPECT_EQ(batch.TotalReports(), scattered.TotalReports());
    for (std::size_t j = 0; j < dims_count; ++j) {
      ASSERT_EQ(batch.ReportCount(j), scattered.ReportCount(j)) << j;
    }
  }
}

TEST(ConsumeScatteredTest, RunShapedBlocksStayBitIdentical) {
  // One-hot expansions produce ascending index runs; interleave runs
  // with isolated entries to exercise the shape the v3 freq path feeds.
  constexpr std::size_t kDims = 640;
  Rng rng(5);
  std::vector<std::uint32_t> dims;
  std::vector<double> values;
  for (int rep = 0; rep < 3000; ++rep) {
    const auto off = static_cast<std::uint32_t>(rng.UniformInt(kDims - 8));
    for (std::uint32_t k = 0; k < 8; ++k) {
      dims.push_back(off + k);
      values.push_back(rng.Uniform(-1.0, 1.0));
    }
    dims.push_back(static_cast<std::uint32_t>(rng.UniformInt(kDims)));
    values.push_back(rng.Uniform(-1.0, 1.0));
  }
  auto batch = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  auto scattered = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  ASSERT_TRUE(batch.ConsumeBatch(dims, values).ok());
  ASSERT_TRUE(scattered.ConsumeScattered(dims, values).ok());
  EXPECT_EQ(batch.EstimatedMean(), scattered.EstimatedMean());
  EXPECT_EQ(batch.TotalReports(), scattered.TotalReports());
}

TEST(ConsumeScatteredTest, RejectsMalformedBlocksWithoutMutating) {
  auto agg = MeanAggregator::Create(3, mech::DomainMap()).value();
  const std::vector<std::uint32_t> dims{0, 1, 7};  // 7 out of range.
  const std::vector<double> values{0.1, 0.2, 0.3};
  EXPECT_FALSE(agg.ConsumeScattered(dims, values).ok());
  EXPECT_EQ(agg.TotalReports(), 0);
  const std::vector<std::uint32_t> short_dims{0, 1};
  EXPECT_FALSE(agg.ConsumeScattered(short_dims, values).ok());
  EXPECT_EQ(agg.TotalReports(), 0);
  EXPECT_TRUE(agg.ConsumeScattered({}, {}).ok());
  EXPECT_EQ(agg.TotalReports(), 0);
}

}  // namespace
}  // namespace protocol
}  // namespace hdldp
