// Unit tests for the numerical building blocks: normal family, quadrature,
// compensated summation.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/math.h"

namespace hdldp {
namespace {

TEST(NormalTest, PdfKnownValues) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804014327, 1e-14);
  EXPECT_NEAR(NormalPdf(1.0), 0.24197072451914337, 1e-14);
  EXPECT_NEAR(NormalPdf(0.0, 2.0, 0.5), NormalPdf(-4.0) / 0.5, 1e-14);
}

TEST(NormalTest, CdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(NormalCdf(-1.0), 1.0 - 0.8413447460685429, 1e-12);
  EXPECT_NEAR(NormalCdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(NormalTest, CdfAccurateInDeepTails) {
  // P(N > 10) ~ 7.619853e-24; erfc-based CDF must not round to 0 or 1.
  EXPECT_NEAR(NormalCdf(-10.0) / 7.61985302416053e-24, 1.0, 1e-9);
  EXPECT_LT(1.0 - NormalCdf(10.0), 1e-20);
}

TEST(NormalTest, IntervalProbMatchesCdfDifference) {
  const double p = NormalIntervalProb(-1.0, 2.0, 0.5, 1.5);
  const double expected = NormalCdf(2.0, 0.5, 1.5) - NormalCdf(-1.0, 0.5, 1.5);
  EXPECT_NEAR(p, expected, 1e-14);
  EXPECT_EQ(NormalIntervalProb(2.0, -1.0, 0.0, 1.0), 0.0);
}

TEST(NormalTest, IntervalProbStableInTails) {
  // Interval far in the right tail: naive CDF subtraction loses all
  // precision; the erfc formulation keeps relative accuracy.
  const double p = NormalIntervalProb(8.0, 9.0, 0.0, 1.0);
  // P(8 < N < 9) = Phi(9) - Phi(8) ~ 6.22096e-16.
  EXPECT_GT(p, 5.5e-16);
  EXPECT_LT(p, 7.0e-16);
}

TEST(NormalTest, QuantileInvertsCdf) {
  for (const double p : {1e-10, 1e-4, 0.025, 0.2, 0.5, 0.8, 0.975, 1 - 1e-6}) {
    const double x = NormalQuantile(p);
    EXPECT_NEAR(NormalCdf(x), p, 1e-12) << "p=" << p;
  }
}

TEST(NormalTest, QuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.84134474606854293), 1.0, 1e-9);
}

TEST(QuadratureTest, PolynomialIsExact) {
  auto cubic = [](double x) { return 3.0 * x * x * x - x + 2.0; };
  // integral over [0, 2] = 3*4 - 2 + 4 = 14.
  const QuadratureResult r = AdaptiveSimpson(cubic, 0.0, 2.0);
  EXPECT_NEAR(r.value, 14.0, 1e-12);
}

TEST(QuadratureTest, ReversedLimitsFlipSign) {
  auto f = [](double x) { return x; };
  EXPECT_NEAR(AdaptiveSimpson(f, 2.0, 0.0).value, -2.0, 1e-12);
  EXPECT_EQ(AdaptiveSimpson(f, 1.0, 1.0).value, 0.0);
}

TEST(QuadratureTest, SmoothTranscendental) {
  const QuadratureResult r =
      AdaptiveSimpson([](double x) { return std::exp(-x * x); }, -6.0, 6.0);
  EXPECT_NEAR(r.value, std::sqrt(kPi), 1e-10);
}

TEST(QuadratureTest, HandlesKink) {
  // integral of |x| over [-1, 2] = 0.5 + 2 = 2.5.
  const QuadratureResult r =
      AdaptiveSimpson([](double x) { return std::abs(x); }, -1.0, 2.0);
  EXPECT_NEAR(r.value, 2.5, 1e-8);
}

TEST(QuadratureTest, ReportsEvaluations) {
  const QuadratureResult r =
      AdaptiveSimpson([](double x) { return std::sin(x); }, 0.0, kPi);
  EXPECT_GT(r.evaluations, 3u);
  EXPECT_NEAR(r.value, 2.0, 1e-10);
}

TEST(QuadratureTest, GaussLegendreExactForHighDegree) {
  // x^10 over [0, 1] = 1/11; degree far below the rule's 127 limit.
  const double v =
      GaussLegendre64([](double x) { return std::pow(x, 10); }, 0.0, 1.0);
  EXPECT_NEAR(v, 1.0 / 11.0, 1e-14);
}

TEST(QuadratureTest, GaussLegendreMatchesSimpson) {
  auto f = [](double x) { return std::cos(3.0 * x) * std::exp(-0.5 * x); };
  const double gl = GaussLegendre64(f, -1.0, 4.0);
  const double as = AdaptiveSimpson(f, -1.0, 4.0).value;
  EXPECT_NEAR(gl, as, 1e-9);
}

TEST(QuadratureTest, IntegrateSegmentsPiecewiseDensity) {
  // Two-level step function integrates exactly when breakpoints align.
  auto step = [](double x) { return x < 0.5 ? 2.0 : 0.5; };
  const Result<double> r = IntegrateSegments(step, {0.0, 0.5, 1.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 2.0 * 0.5 + 0.5 * 0.5, 1e-12);
}

TEST(QuadratureTest, IntegrateSegmentsValidatesInput) {
  auto f = [](double) { return 1.0; };
  EXPECT_FALSE(IntegrateSegments(f, {0.0}).ok());
  EXPECT_FALSE(IntegrateSegments(f, {1.0, 0.0}).ok());
}

TEST(SummationTest, NeumaierRecoversLostLowOrderBits) {
  NeumaierSum acc;
  acc.Add(1e16);
  for (int i = 0; i < 10000; ++i) acc.Add(1.0);
  acc.Add(-1e16);
  EXPECT_EQ(acc.Total(), 10000.0);
}

TEST(SummationTest, StableSumMatchesExact) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(0.1);
  EXPECT_NEAR(StableSum(xs.data(), xs.size()), 100.0, 1e-12);
}

// Column j of a rows x d matrix whose columns exercise the fold's edge
// cases by j % 5: signed zeros and |s| == |x| ties, 1e300 next to 1e-300,
// catastrophic cancellation, ±inf, and NaN.
std::vector<double> EdgeCaseMatrix(std::size_t rows, std::size_t d) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> pools = {
      {0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0},
      {1e300, -1e300, 1e-300, -1e-300, 1.0, 4.9e-324, -4.9e-324},
      {1e16, -1e16, 1.0, -1.0, 3.0, 1e-16, -1e-16, 0.1},
      {1.0, -2.5, 7.0, kInf, -kInf, 1e308},
      {0.25, -3.0, nan, 1e-300, -0.0, 9.0},
  };
  std::mt19937_64 gen(rows * 131 + d);
  std::vector<double> values(rows * d);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      const auto& pool = pools[j % pools.size()];
      values[i * d + j] = pool[gen() % pool.size()];
    }
  }
  return values;
}

TEST(SummationTest, ColumnFoldMatchesPerColumnNeumaierBitForBit) {
  constexpr std::size_t kRows = 61;
  for (const std::size_t d : {1u, 3u, 4u, 5u, 200u, 1024u}) {
    const std::vector<double> values = EdgeCaseMatrix(kRows, d);
    std::vector<NeumaierSum> reference(d);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t j = 0; j < d; ++j) reference[j].Add(values[i * d + j]);
    }
    // NeumaierSum and NeumaierColumns share one select-form step, so the
    // reference itself is pinned to the textbook branching step.
    for (std::size_t j = 0; j < d; ++j) {
      double s = 0.0;
      double c = 0.0;
      for (std::size_t i = 0; i < kRows; ++i) {
        const double x = values[i * d + j];
        const double t = s + x;
        if (std::fabs(s) >= std::fabs(x)) {
          c += (s - t) + x;
        } else {
          c += (x - t) + s;
        }
        s = t;
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(reference[j].RawSum()),
                std::bit_cast<std::uint64_t>(s))
          << "d " << d << " column " << j;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(reference[j].Compensation()),
                std::bit_cast<std::uint64_t>(c))
          << "d " << d << " column " << j;
    }
    // Uneven row batches, as a chunked pass feeds them.
    NeumaierColumns columns(d);
    const std::span<const double> all(values);
    std::size_t row = 0;
    for (const std::size_t batch : {1u, 7u, 0u, 20u, 33u}) {
      columns.AddRows(all.subspan(row * d, batch * d));
      row += batch;
    }
    ASSERT_EQ(row, kRows);
    const std::vector<double> mean = columns.Mean(kRows);
    for (std::size_t j = 0; j < d; ++j) {
      const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
      ASSERT_EQ(bits(columns.RawSum(j)), bits(reference[j].RawSum()))
          << "d " << d << " column " << j;
      ASSERT_EQ(bits(columns.Compensation(j)),
                bits(reference[j].Compensation()))
          << "d " << d << " column " << j;
      ASSERT_EQ(bits(mean[j]), bits(reference[j].Total() / kRows))
          << "d " << d << " column " << j;
    }
    // The pools reach every edge case: a finite cancellation column, an
    // infinite one and a NaN one.
    if (d >= 5) {
      EXPECT_TRUE(std::isfinite(mean[2]));
      EXPECT_FALSE(std::isfinite(mean[3]));
      EXPECT_TRUE(std::isnan(mean[4]));
    }
    // MergeState is NeumaierSum::MergeState per column, as when one
    // chunk's column sums merge into the ones before it.
    const std::vector<double> more = EdgeCaseMatrix(kRows + 6, d);
    NeumaierColumns next(d);
    next.AddRows(more);
    std::vector<NeumaierSum> next_reference(d);
    for (std::size_t i = 0; i < kRows + 6; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        next_reference[j].Add(more[i * d + j]);
      }
    }
    columns.MergeState(next);
    for (std::size_t j = 0; j < d; ++j) {
      const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
      reference[j].MergeState(next_reference[j]);
      ASSERT_EQ(bits(columns.RawSum(j)), bits(reference[j].RawSum()))
          << "merged, d " << d << " column " << j;
      ASSERT_EQ(bits(columns.Compensation(j)),
                bits(reference[j].Compensation()))
          << "merged, d " << d << " column " << j;
    }
    if (d >= 5) {
      const std::vector<double> merged = columns.Mean(2 * kRows + 6);
      EXPECT_TRUE(std::isfinite(merged[2]));
      EXPECT_FALSE(std::isfinite(merged[3]));
      EXPECT_TRUE(std::isnan(merged[4]));
    }
  }
}

TEST(MathTest, ClampAndSq) {
  EXPECT_EQ(Clamp(5.0, -1.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, -1.0, 1.0), -1.0);
  EXPECT_EQ(Clamp(0.25, -1.0, 1.0), 0.25);
  EXPECT_EQ(Sq(-3.0), 9.0);
}

}  // namespace
}  // namespace hdldp
