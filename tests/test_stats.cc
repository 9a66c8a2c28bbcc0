// Unit tests for streaming statistics and histograms.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace hdldp {
namespace {

TEST(RunningMomentsTest, EmptyAccumulator) {
  RunningMoments m;
  EXPECT_EQ(m.count(), 0);
  EXPECT_EQ(m.Mean(), 0.0);
  EXPECT_EQ(m.Variance(), 0.0);
  EXPECT_EQ(m.Skewness(), 0.0);
  EXPECT_TRUE(std::isinf(m.Min()));
  EXPECT_TRUE(std::isinf(m.Max()));
}

TEST(RunningMomentsTest, KnownSmallSample) {
  RunningMoments m;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.Add(x);
  EXPECT_EQ(m.count(), 8);
  EXPECT_DOUBLE_EQ(m.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.PopulationVariance(), 4.0);
  EXPECT_NEAR(m.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(m.Min(), 2.0);
  EXPECT_EQ(m.Max(), 9.0);
}

TEST(RunningMomentsTest, MatchesTwoPassOnRandomData) {
  Rng rng(42);
  std::vector<double> xs;
  RunningMoments m;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.Gaussian(1.5, 2.0);
    xs.push_back(x);
    m.Add(x);
  }
  EXPECT_NEAR(m.Mean(), Mean(xs), 1e-10);
  EXPECT_NEAR(m.Variance(), SampleVariance(xs), 1e-8);
}

TEST(RunningMomentsTest, SkewnessOfExponentialIsTwo) {
  Rng rng(43);
  RunningMoments m;
  for (int i = 0; i < 400000; ++i) m.Add(rng.Exponential(1.0));
  EXPECT_NEAR(m.Skewness(), 2.0, 0.1);
  EXPECT_NEAR(m.ExcessKurtosis(), 6.0, 0.8);
}

TEST(RunningMomentsTest, MergeEqualsSequential) {
  Rng rng(44);
  RunningMoments all, left, right;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.Uniform(-2.0, 5.0);
    all.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.Mean(), all.Mean(), 1e-10);
  EXPECT_NEAR(left.Variance(), all.Variance(), 1e-8);
  EXPECT_NEAR(left.Skewness(), all.Skewness(), 1e-7);
  EXPECT_NEAR(left.ExcessKurtosis(), all.ExcessKurtosis(), 1e-6);
  EXPECT_EQ(left.Min(), all.Min());
  EXPECT_EQ(left.Max(), all.Max());
}

TEST(RunningMomentsTest, MergeWithEmptySides) {
  RunningMoments a, b;
  a.Add(1.0);
  a.Add(3.0);
  RunningMoments empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  b.Merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.Mean(), 2.0);
}

TEST(HistogramTest, CreateValidates) {
  EXPECT_FALSE(Histogram::Create(1.0, 1.0, 10).ok());
  EXPECT_FALSE(Histogram::Create(2.0, 1.0, 10).ok());
  EXPECT_FALSE(Histogram::Create(0.0, 1.0, 0).ok());
  EXPECT_TRUE(Histogram::Create(0.0, 1.0, 10).ok());
}

TEST(HistogramTest, CountsAndOverflow) {
  auto h = Histogram::Create(0.0, 1.0, 4).value();
  h.Add(0.1);   // bin 0
  h.Add(0.3);   // bin 1
  h.Add(0.55);  // bin 2
  h.Add(0.9);   // bin 3
  h.Add(-0.5);  // underflow
  h.Add(1.5);   // overflow
  EXPECT_EQ(h.Count(0), 1);
  EXPECT_EQ(h.Count(1), 1);
  EXPECT_EQ(h.Count(2), 1);
  EXPECT_EQ(h.Count(3), 1);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.TotalCount(), 6);
}

TEST(HistogramTest, BinCenters) {
  auto h = Histogram::Create(-1.0, 1.0, 4).value();
  EXPECT_DOUBLE_EQ(h.bin_width(), 0.5);
  EXPECT_DOUBLE_EQ(h.BinCenter(0), -0.75);
  EXPECT_DOUBLE_EQ(h.BinCenter(3), 0.75);
}

TEST(HistogramTest, DensityIntegratesToInRangeFraction) {
  Rng rng(45);
  auto h = Histogram::Create(-2.0, 2.0, 40).value();
  for (int i = 0; i < 100000; ++i) h.Add(rng.Gaussian());
  double integral = 0.0;
  for (std::size_t b = 0; b < h.num_bins(); ++b) {
    integral += h.DensityAt(b) * h.bin_width();
  }
  const double in_range_fraction =
      1.0 - static_cast<double>(h.underflow() + h.overflow()) /
                static_cast<double>(h.TotalCount());
  EXPECT_NEAR(integral, in_range_fraction, 1e-12);
}

TEST(HistogramTest, DensityApproximatesGaussianPdf) {
  Rng rng(46);
  auto h = Histogram::Create(-4.0, 4.0, 80).value();
  for (int i = 0; i < 400000; ++i) h.Add(rng.Gaussian());
  // Compare the central bin's density against phi(center).
  const std::size_t center_bin = 40;
  const double center = h.BinCenter(center_bin);
  const double expected = std::exp(-0.5 * center * center) / 2.50662827463;
  EXPECT_NEAR(h.DensityAt(center_bin), expected, 0.01);
}

TEST(HistogramTest, EdgeValueGoesToLastBinNeighborhood) {
  auto h = Histogram::Create(0.0, 1.0, 10).value();
  h.Add(0.9999999999);
  EXPECT_EQ(h.Count(9), 1);
  h.Add(1.0);  // Exactly hi -> overflow by the [lo, hi) contract.
  EXPECT_EQ(h.overflow(), 1);
}

TEST(HistogramTest, NanIsCountedNotCrashed) {
  auto h = Histogram::Create(0.0, 1.0, 4).value();
  h.Add(std::nan(""));
  h.Add(0.5);
  EXPECT_EQ(h.TotalCount(), 2);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.Count(2), 1);
}

TEST(BatchStatsTest, MeanAndVariance) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_NEAR(SampleVariance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(SampleVariance({1.0}), 0.0);
}

}  // namespace
}  // namespace hdldp
