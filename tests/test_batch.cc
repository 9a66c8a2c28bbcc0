// Tests of the scattered-block fold: MeanAggregator::ConsumeScattered
// must be bit-identical to entry-order Consume() calls under every block
// shape the engine feeds it (v2's per-user spans, v3's cross-user blocks,
// one-hot runs), and must reject malformed blocks without mutating state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "protocol/aggregator.h"

namespace hdldp {
namespace protocol {
namespace {

// The entry-order reference fold.
MeanAggregator ScalarFold(std::size_t num_dims,
                          const std::vector<std::uint32_t>& dims,
                          const std::vector<double>& values) {
  auto agg = MeanAggregator::Create(num_dims, mech::DomainMap()).value();
  for (std::size_t k = 0; k < dims.size(); ++k) agg.Consume(dims[k], values[k]);
  return agg;
}

TEST(ConsumeScatteredTest, MatchesScalarConsumePlusMergeBitExactly) {
  constexpr std::size_t kDims = 12;
  constexpr std::size_t kEntries = 4096;
  Rng rng(2024);
  std::vector<std::uint32_t> dims(kEntries);
  std::vector<double> values(kEntries);
  for (std::size_t k = 0; k < kEntries; ++k) {
    dims[k] = static_cast<std::uint32_t>(rng.UniformInt(kDims));
    values[k] = rng.Uniform(-3.0, 3.0);
  }
  const MeanAggregator scalar = ScalarFold(kDims, dims, values);

  // Two shard aggregators splitting the stream, then Merge — the
  // pipeline's worker-reduction shape.
  auto shard_a = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  auto shard_b = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  const std::size_t half = kEntries / 2;
  ASSERT_TRUE(shard_a
                  .ConsumeScattered(
                      std::span<const std::uint32_t>(dims).first(half),
                      std::span<const double>(values).first(half))
                  .ok());
  ASSERT_TRUE(shard_b
                  .ConsumeScattered(
                      std::span<const std::uint32_t>(dims).subspan(half),
                      std::span<const double>(values).subspan(half))
                  .ok());
  ASSERT_TRUE(shard_a.Merge(shard_b).ok());

  ASSERT_EQ(scalar.TotalReports(), shard_a.TotalReports());
  const std::vector<double> scalar_mean = scalar.EstimatedMean();
  const std::vector<double> merged_mean = shard_a.EstimatedMean();
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(scalar.ReportCount(j), shard_a.ReportCount(j));
    // NeumaierSum::Merge folds the shard total in one Add, so the merged
    // sum is not guaranteed bit-equal to the sequential sum in general —
    // but for this fixed stream the estimates agree to full precision.
    EXPECT_DOUBLE_EQ(scalar_mean[j], merged_mean[j]);
  }

  // Single aggregator, whole stream in one block: exactly the scalar
  // order, so bit-identical.
  auto whole = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  ASSERT_TRUE(whole.ConsumeScattered(dims, values).ok());
  EXPECT_EQ(scalar_mean, whole.EstimatedMean());
}

TEST(ConsumeScatteredTest, BitIdenticalToScalarConsume) {
  Rng rng(77);
  // The one in-place fold, over a small d (100) and a d wider than an
  // L1-resident slice of sums (3000), each as one large v3-style block
  // and as small v2-style per-user spans.
  for (const std::size_t dims_count : {std::size_t{100}, std::size_t{3000}}) {
    SCOPED_TRACE(dims_count);
    constexpr std::size_t kEntries = 40000;
    std::vector<std::uint32_t> dims(kEntries);
    std::vector<double> values(kEntries);
    for (std::size_t k = 0; k < kEntries; ++k) {
      dims[k] = static_cast<std::uint32_t>(rng.UniformInt(dims_count));
      values[k] = rng.Uniform(-3.0, 3.0);
    }
    const MeanAggregator scalar = ScalarFold(dims_count, dims, values);
    auto block = MeanAggregator::Create(dims_count, mech::DomainMap()).value();
    ASSERT_TRUE(block.ConsumeScattered(dims, values).ok());
    auto spans = MeanAggregator::Create(dims_count, mech::DomainMap()).value();
    constexpr std::size_t kSpan = 7;
    for (std::size_t k = 0; k < kEntries; k += kSpan) {
      const std::size_t len = std::min(kSpan, kEntries - k);
      ASSERT_TRUE(spans
                      .ConsumeScattered(
                          std::span<const std::uint32_t>(dims).subspan(k, len),
                          std::span<const double>(values).subspan(k, len))
                      .ok());
    }
    for (const MeanAggregator* agg : {&block, &spans}) {
      EXPECT_EQ(scalar.EstimatedMean(), agg->EstimatedMean());
      EXPECT_EQ(scalar.TotalReports(), agg->TotalReports());
      for (std::size_t j = 0; j < dims_count; ++j) {
        ASSERT_EQ(scalar.ReportCount(j), agg->ReportCount(j)) << j;
      }
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
  const MeanAggregator scalar = ScalarFold(kDims, dims, values);
  auto scattered = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  ASSERT_TRUE(scattered.ConsumeScattered(dims, values).ok());
  EXPECT_EQ(scalar.EstimatedMean(), scattered.EstimatedMean());
  EXPECT_EQ(scalar.TotalReports(), scattered.TotalReports());
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
