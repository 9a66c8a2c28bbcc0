// Tests for the analytical framework: value distributions, the
// Lemma 2/Lemma 3 Gaussian deviation models (validated against Monte
// Carlo), Theorem 1's multivariate composition, the Theorem 2
// Berry-Esseen bound, and the Table II benchmark engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "common/stats.h"
#include "data/dataset.h"
#include "data/generator_source.h"
#include "data/generators.h"
#include "framework/benchmark.h"
#include "framework/berry_esseen.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "mech/registry.h"

namespace hdldp {
namespace framework {
namespace {

// The Section IV-C case study: values {0.1, ..., 1.0}, 10% each.
ValueDistribution CaseStudyValues() {
  std::vector<double> values;
  std::vector<double> probs;
  for (int k = 1; k <= 10; ++k) {
    values.push_back(0.1 * k);
    probs.push_back(0.1);
  }
  return ValueDistribution::Create(values, probs).value();
}

TEST(ValueDistributionTest, CreateValidates) {
  EXPECT_FALSE(ValueDistribution::Create({}, {}).ok());
  EXPECT_FALSE(ValueDistribution::Create({0.5}, {0.9}).ok());
  EXPECT_FALSE(ValueDistribution::Create({0.5, 0.6}, {0.5}).ok());
  EXPECT_FALSE(ValueDistribution::Create({0.5, 0.6}, {-0.2, 1.2}).ok());
  EXPECT_TRUE(ValueDistribution::Create({0.5, 0.6}, {0.4, 0.6}).ok());
}

TEST(ValueDistributionTest, PointMass) {
  const auto d = ValueDistribution::Point(0.7);
  EXPECT_EQ(d.support_size(), 1u);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.7);
  EXPECT_DOUBLE_EQ(d.Variance(), 0.0);
}

TEST(ValueDistributionTest, MeanAndVariance) {
  const auto d = ValueDistribution::Create({0.0, 1.0}, {0.25, 0.75}).value();
  EXPECT_DOUBLE_EQ(d.Mean(), 0.75);
  EXPECT_NEAR(d.Variance(), 0.25 * 0.75, 1e-15);
}

TEST(ValueDistributionTest, FromSamplesExactWhenSmallSupport) {
  const std::vector<double> samples = {0.1, 0.1, 0.1, 0.5, 0.5, 1.0};
  const auto d = ValueDistribution::FromSamples(samples, 16).value();
  ASSERT_EQ(d.support_size(), 3u);
  EXPECT_DOUBLE_EQ(d.values()[0], 0.1);
  EXPECT_DOUBLE_EQ(d.probabilities()[0], 0.5);
  EXPECT_DOUBLE_EQ(d.probabilities()[2], 1.0 / 6.0);
}

TEST(ValueDistributionTest, FromSamplesBinsContinuousData) {
  Rng rng(1);
  std::vector<double> samples(20000);
  for (double& s : samples) s = rng.Uniform(-1.0, 1.0);
  const auto d = ValueDistribution::FromSamples(samples, 32).value();
  EXPECT_EQ(d.support_size(), 32u);
  EXPECT_NEAR(d.Mean(), Mean(samples), 1e-9);
  // Binning preserves the variance of uniform data closely.
  EXPECT_NEAR(d.Variance(), 1.0 / 3.0, 0.01);
}

TEST(ValueDistributionTest, FromSamplesValidates) {
  EXPECT_FALSE(ValueDistribution::FromSamples({}, 8).ok());
  const std::vector<double> one = {1.0};
  EXPECT_FALSE(ValueDistribution::FromSamples(one, 0).ok());
}

TEST(ValueDistributionTest, FromSamplesRejectsNonFiniteSamples) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    // Small support (the exact path) and a continuous 2000-row column
    // (the quantile-bin path): both are refused before either runs.
    const std::vector<double> small = {0.25, bad, 0.25};
    std::vector<double> large(2000);
    Rng rng(3);
    for (double& x : large) x = rng.Uniform(-1.0, 1.0);
    large[1234] = bad;
    for (const auto& samples : {small, large}) {
      const auto got = ValueDistribution::FromSamples(samples, 16);
      ASSERT_FALSE(got.ok()) << bad;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

// FromSamples' body as it stood with a comparison sort: the exact
// small-support law, else std::sort and one NeumaierSum per equal-count
// bin. Each of FromSamples' sorts must reproduce its bins bit for bit.
std::pair<std::vector<double>, std::vector<double>> SortedBinsReference(
    std::span<const double> samples, std::size_t max_support) {
  std::map<double, std::size_t> counts;
  bool small = true;
  for (const double x : samples) {
    if (++counts[x] == 1 && counts.size() > max_support) {
      small = false;
      break;
    }
  }
  const auto n = static_cast<double>(samples.size());
  std::vector<double> values;
  std::vector<double> probs;
  if (small) {
    for (const auto& [value, count] : counts) {
      values.push_back(value);
      probs.push_back(static_cast<double>(count) / n);
    }
    double total = 0.0;
    for (const double p : probs) total += p;
    for (double& p : probs) p /= total;
    return {values, probs};
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t total_n = sorted.size();
  std::size_t start = 0;
  for (std::size_t b = 0; b < max_support; ++b) {
    const std::size_t end = (b + 1) * total_n / max_support;
    if (end <= start) continue;
    NeumaierSum sum;
    for (std::size_t i = start; i < end; ++i) sum.Add(sorted[i]);
    values.push_back(sum.Total() / static_cast<double>(end - start));
    probs.push_back(static_cast<double>(end - start) / n);
    start = end;
  }
  return {values, probs};
}

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t z = 0; z < want.size(); ++z) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[z]),
              std::bit_cast<std::uint64_t>(want[z]))
        << label << " z=" << z << " got " << got[z] << " want " << want[z];
  }
}

void ExpectSameBinsAsSort(std::span<const double> samples,
                          std::size_t max_support, const std::string& label) {
  const auto got = ValueDistribution::FromSamples(samples, max_support);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  const auto [values, probs] = SortedBinsReference(samples, max_support);
  ExpectBitwiseEqual(got->values(), values, label + " values");
  ExpectBitwiseEqual(got->probabilities(), probs, label + " probabilities");
}

TEST(ValueDistributionTest, FromSamplesBinsMatchTheComparisonSortBitForBit) {
  constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
  Rng rng(20);
  // Ties and long runs clamped at +-1, as a wide Gaussian column is.
  std::vector<double> clamped(2000);
  for (double& x : clamped) x = Clamp(rng.Gaussian(0.0, 0.9), -1.0, 1.0);
  ExpectSameBinsAsSort(clamped, 16, "clamped");
  // Heavy ties on a 1/64 grid (129 distinct values, runs of ~16).
  std::vector<double> grid(2000);
  for (double& x : grid) {
    x = std::round(rng.Uniform(-1.0, 1.0) * 64.0) / 64.0;
  }
  ExpectSameBinsAsSort(grid, 16, "grid");
  // Mixed -0/+0, denormals of both signs, and a few normals.
  std::vector<double> zeros(2000);
  for (std::size_t i = 0; i < zeros.size(); ++i) {
    switch (i % 5) {
      case 0: zeros[i] = 0.0; break;
      case 1: zeros[i] = -0.0; break;
      case 2: zeros[i] = kDenormal * static_cast<double>(i); break;
      case 3: zeros[i] = -kDenormal * static_cast<double>(i); break;
      default: zeros[i] = rng.Uniform(-1e-300, 1e-300); break;
    }
  }
  ExpectSameBinsAsSort(zeros, 16, "signed zeros and denormals");
  // Bins made only of signed zeros: two thirds of the column is -0/+0,
  // the rest 17 distinct positives.
  std::vector<double> only_zeros(2000);
  for (std::size_t i = 0; i < only_zeros.size(); ++i) {
    only_zeros[i] = i % 3 == 0 ? -0.0 : (i % 3 == 1 ? 0.0 : 0.5 + i % 17);
  }
  ExpectSameBinsAsSort(only_zeros, 16, "zero runs");
  std::vector<double> negative(2000);
  for (double& x : negative) x = -rng.Uniform(0.0, 1.0) - kDenormal;
  ExpectSameBinsAsSort(negative, 16, "all negative");
  // A constant column, and a support one past max_support.
  ExpectSameBinsAsSort(std::vector<double>(2000, -0.375), 16, "constant");
  std::vector<double> seventeen(2000);
  for (std::size_t i = 0; i < seventeen.size(); ++i) {
    seventeen[i] = static_cast<double>((i * 7) % 17) / 8.0 - 1.0;
  }
  ExpectSameBinsAsSort(seventeen, 16, "support 17");
  // n below max_support, just above it, and not divisible by it.
  for (const std::size_t n : {1u, 5u, 15u, 17u, 20u, 33u, 2003u}) {
    std::vector<double> column(n);
    for (double& x : column) x = rng.Uniform(-1.0, 1.0);
    ExpectSameBinsAsSort(column, 16, "n=" + std::to_string(n));
  }
  // 50 seeded columns of the workload's shape: Gaussian (sd 1/16,
  // clamped) and Poisson-like counts.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng column_rng(1000 + seed);
    std::vector<double> gaussian(2000);
    std::vector<double> poisson(2000);
    for (double& x : gaussian) {
      x = Clamp(column_rng.Gaussian(0.0, 1.0 / 16.0), -1.0, 1.0);
    }
    for (double& x : poisson) {
      x = static_cast<double>(column_rng.Poisson(12.0)) / 32.0 - 0.5;
    }
    ExpectSameBinsAsSort(gaussian, 16, "gaussian seed " + std::to_string(seed));
    ExpectSameBinsAsSort(poisson, 16, "poisson seed " + std::to_string(seed));
  }
}

// Each path of FromSamples' sort against the comparison sort: the 16-bit
// code sort with and without insertion fix-ups, and each trigger of the
// std::sort fallback (a non-finite range, an overflowing scale, the fix-up
// budget). Then the exact law's flat probe at its support limit.
TEST(ValueDistributionTest,
     FromSamplesSortPathsMatchTheComparisonSortBitForBit) {
  constexpr std::size_t kRows = 2000;
  Rng rng(27);
  // The benchmark's shape: 2000 rows of a GaussianSpec population, one
  // signal column (mean 0.9) and one noise column (mean 0).
  data::GaussianSpec spec;
  spec.num_users = kRows;
  spec.num_dims = 16;
  const data::Dataset population = data::GenerateChunkKeyed(spec, 1).value();
  for (const std::size_t j : {0u, 9u}) {
    std::vector<double> column(kRows);
    for (std::size_t i = 0; i < kRows; ++i) column[i] = population.Row(i)[j];
    ExpectSameBinsAsSort(column, 16, "gaussian column " + std::to_string(j));
  }
  // Ties at a clamp bound of 1.0 beside values just below it. With the
  // range [-0.9, 1.0] the scaled range rounds below 65535, so 1.0 and
  // everything within 2.9e-5 of it share the top code: 140 ties of 1.0
  // interleaved with 20 ascending values below it, then, as the last
  // sample, the smallest of them again, which the insertion pass must
  // carry back across the boundary of the last two bins.
  std::vector<double> clamp;
  clamp.push_back(-0.9);
  while (clamp.size() < kRows - 161) clamp.push_back(rng.Uniform(-0.9, 0.99));
  for (std::size_t t = 0; t < 140; ++t) {
    if (t % 7 == 0) {
      clamp.push_back(1.0 - 1e-6 * static_cast<double>(20 - t / 7));
    }
    clamp.push_back(1.0);
  }
  clamp.push_back(1.0 - 2e-5);
  ASSERT_EQ(clamp.size(), kRows);
  ExpectSameBinsAsSort(clamp, 16, "clamp ties");
  // Integer counts with many ties: each count is one code.
  std::vector<double> counts(kRows);
  for (double& x : counts) x = static_cast<double>(rng.Poisson(6.0));
  ExpectSameBinsAsSort(counts, 16, "poisson counts");
  std::vector<double> descending(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    descending[i] = static_cast<double>(kRows - i) / kRows;
  }
  ExpectSameBinsAsSort(descending, 16, "descending ramp");
  // One far outlier: all other samples get code 0, and ordering them
  // takes far more than 4n insertion shifts.
  std::vector<double> outlier(kRows);
  for (double& x : outlier) x = rng.Uniform(0.0, 1.0);
  outlier[kRows / 3] = 1e300;
  ExpectSameBinsAsSort(outlier, 16, "1e300 outlier");
  // hi - lo overflows to infinity.
  std::vector<double> extremes(kRows);
  for (double& x : extremes) x = rng.Uniform(-1.0, 1.0);
  extremes[100] = 1.7e308;
  extremes[1500] = -1.7e308;
  ExpectSameBinsAsSort(extremes, 16, "+-1.7e308");
  // A subnormal range: 65535 / (hi - lo) overflows.
  std::vector<double> subnormal(kRows);
  for (double& x : subnormal) {
    x = std::numeric_limits<double>::denorm_min() *
        std::round(rng.Uniform(-4000.0, 4000.0));
  }
  ExpectSameBinsAsSort(subnormal, 16, "subnormal only");
  // The flat probe: exactly max_support distinct values is the exact
  // law, one more is binned, and the first of -0/+0 seen is the value
  // the exact law keeps for both.
  for (const std::size_t distinct : {16u, 17u}) {
    std::vector<double> column(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      column[i] = static_cast<double>((i * 5) % distinct) / 4.0 - 1.5;
    }
    ExpectSameBinsAsSort(column, 16, std::to_string(distinct) + " distinct");
  }
  for (const double first_zero : {-0.0, 0.0}) {
    std::vector<double> zeros(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      zeros[i] = i % 2 == 1   ? static_cast<double>(i % 9) - 4.0
                 : i % 4 == 0 ? -0.0
                              : 0.0;
    }
    zeros[0] = first_zero;
    ExpectSameBinsAsSort(zeros, 16,
                         std::signbit(first_zero) ? "-0 first" : "+0 first");
    const auto law = ValueDistribution::FromSamples(zeros, 16).value();
    const auto zero = std::find(law.values().begin(), law.values().end(), 0.0);
    ASSERT_NE(zero, law.values().end());
    EXPECT_EQ(std::signbit(*zero), std::signbit(first_zero));
  }
}

TEST(GaussianDeviationTest, BasicLawQueries) {
  const GaussianDeviation g{0.5, 2.0};
  EXPECT_NEAR(g.Pdf(0.5), 1.0 / (kSqrt2Pi * 2.0), 1e-12);
  EXPECT_NEAR(g.Cdf(0.5), 0.5, 1e-12);
  EXPECT_NEAR(g.ProbWithin(100.0), 1.0, 1e-9);
  EXPECT_EQ(g.ProbWithin(0.0), 0.0);
  EXPECT_DOUBLE_EQ(g.SupDeviation(3.0), 0.5 + 6.0);
}

// ---------------------------------------------------------------------------
// Lemma 2/3 models vs. the paper's case-study constants.

TEST(ModelDeviationTest, PiecewiseCaseStudyMatchesPaper) {
  const auto mech = mech::MakeMechanism("piecewise").value();
  const auto model =
      ModelDeviation(*mech, 0.001, CaseStudyValues(), 10000.0).value();
  // Paper Eq. 15: sigma_j^2 = 533.210 (unbiased).
  EXPECT_NEAR(Sq(model.deviation.stddev), 533.2, 0.5);
  EXPECT_DOUBLE_EQ(model.deviation.mean, 0.0);
}

TEST(ModelDeviationTest, SquareWaveCaseStudyMatchesPaper) {
  const auto mech = mech::MakeMechanism("square_wave").value();
  // The case study evaluates Square wave on its native [0, 1] values.
  const auto model = ModelDeviation(*mech, 0.001, CaseStudyValues(), 10000.0,
                                    {0.0, 1.0})
                         .value();
  // Paper Eq. 19: delta_j = -0.049, sigma_j^2 = 3.365e-5.
  EXPECT_NEAR(model.deviation.mean, -0.049, 0.002);
  EXPECT_NEAR(Sq(model.deviation.stddev), 3.365e-5, 0.15e-5);
}

TEST(ModelDeviationTest, UnboundedModelIgnoresValueDistribution) {
  const auto mech = mech::MakeMechanism("laplace").value();
  const auto point =
      ModelDeviation(*mech, 0.5, ValueDistribution::Point(0.9), 100.0).value();
  const auto spread =
      ModelDeviation(*mech, 0.5, CaseStudyValues(), 100.0).value();
  EXPECT_DOUBLE_EQ(point.deviation.stddev, spread.deviation.stddev);
  EXPECT_DOUBLE_EQ(point.deviation.mean, spread.deviation.mean);
  // Lemma 2: sigma^2 = Var[N]/r = 2 (2/eps)^2 / r.
  EXPECT_NEAR(Sq(point.deviation.stddev), 2.0 * Sq(2.0 / 0.5) / 100.0, 1e-12);
}

TEST(ModelDeviationTest, DomainMapScalesMoments) {
  // Square wave on [-1, 1] data halves into [0, 1]; deviations in data
  // space are exactly 2x the native ones.
  const auto mech = mech::MakeMechanism("square_wave").value();
  const auto native = ModelDeviation(*mech, 0.01, CaseStudyValues(), 500.0,
                                     {0.0, 1.0})
                          .value();
  // Same underlying values expressed in [-1, 1]: v_data = 2v - 1.
  std::vector<double> data_values;
  std::vector<double> probs;
  for (int k = 1; k <= 10; ++k) {
    data_values.push_back(2.0 * 0.1 * k - 1.0);
    probs.push_back(0.1);
  }
  const auto data_dist = ValueDistribution::Create(data_values, probs).value();
  const auto mapped =
      ModelDeviation(*mech, 0.01, data_dist, 500.0, {-1.0, 1.0}).value();
  EXPECT_NEAR(mapped.deviation.mean, 2.0 * native.deviation.mean, 1e-9);
  EXPECT_NEAR(mapped.deviation.stddev, 2.0 * native.deviation.stddev, 1e-9);
  EXPECT_NEAR(mapped.per_report_third_abs, 8.0 * native.per_report_third_abs,
              1e-9 * mapped.per_report_third_abs + 1e-12);
}

TEST(ModelDeviationTest, Validates) {
  const auto mech = mech::MakeMechanism("laplace").value();
  EXPECT_FALSE(
      ModelDeviation(*mech, -1.0, ValueDistribution::Point(0.0), 10.0).ok());
  EXPECT_FALSE(
      ModelDeviation(*mech, 1.0, ValueDistribution::Point(0.0), 0.0).ok());
}

// Monte-Carlo validation of the CLT model: fix a dataset whose empirical
// law matches the value distribution exactly, repeatedly perturb it, and
// compare the deviation's empirical mean/stddev/coverage with the model.
class CltValidationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CltValidationTest, EmpiricalDeviationMatchesModel) {
  const auto mechanism = mech::MakeMechanism(GetParam()).value();
  const mech::Interval data_domain =
      mechanism->InputDomain();  // Identity map keeps the test direct.
  const auto values = CaseStudyValues();
  const double eps = 0.5;
  constexpr int kReports = 2000;
  constexpr int kTrials = 2500;

  const auto model =
      ModelDeviation(*mechanism, eps, values, kReports, data_domain).value();

  // Dataset with exactly kReports * p_z copies of each value.
  std::vector<double> data;
  for (std::size_t z = 0; z < values.support_size(); ++z) {
    const auto copies = static_cast<int>(
        std::lround(values.probabilities()[z] * kReports));
    data.insert(data.end(), copies, values.values()[z]);
  }
  ASSERT_EQ(data.size(), static_cast<std::size_t>(kReports));
  const double true_mean = Mean(data);

  Rng rng(0xABCD);
  RunningMoments deviations;
  int covered_95 = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    NeumaierSum sum;
    for (const double t : data) {
      sum.Add(mechanism->Perturb(t, eps, &rng));
    }
    const double dev = sum.Total() / kReports - true_mean;
    deviations.Add(dev);
    if (std::abs(dev - model.deviation.mean) <=
        1.96 * model.deviation.stddev) {
      ++covered_95;
    }
  }

  const double se_mean = model.deviation.stddev / std::sqrt(kTrials);
  EXPECT_NEAR(deviations.Mean(), model.deviation.mean, 6.0 * se_mean);
  EXPECT_NEAR(deviations.StdDev(), model.deviation.stddev,
              0.1 * model.deviation.stddev);
  // CLT coverage: ~95% of deviations inside +/- 1.96 sigma.
  EXPECT_NEAR(covered_95 / static_cast<double>(kTrials), 0.95, 0.02);
}

INSTANTIATE_TEST_SUITE_P(PaperAndBaselineMechanisms, CltValidationTest,
                         ::testing::Values("laplace", "piecewise",
                                           "square_wave", "duchi", "scdf"));

// Same CLT validation with a non-trivial domain map: square wave serving
// [-1, 1] data through its native [0, 1] domain.
TEST(CltValidationTest, HoldsUnderDomainMapping) {
  const auto mechanism = mech::MakeMechanism("square_wave").value();
  const double eps = 0.5;
  constexpr int kReports = 2000;
  constexpr int kTrials = 1500;
  // Values in the data domain [-1, 1].
  std::vector<double> values_list;
  std::vector<double> probs;
  for (int k = 0; k < 8; ++k) {
    values_list.push_back(-0.9 + 0.25 * k);
    probs.push_back(0.125);
  }
  const auto values = ValueDistribution::Create(values_list, probs).value();
  const auto model =
      ModelDeviation(*mechanism, eps, values, kReports, {-1.0, 1.0}).value();

  std::vector<double> data;
  for (std::size_t z = 0; z < values.support_size(); ++z) {
    data.insert(data.end(), kReports / 8, values.values()[z]);
  }
  const double true_mean = Mean(data);
  const auto map =
      mech::DomainMap::Between({-1.0, 1.0}, {0.0, 1.0}).value();
  Rng rng(0xD0'Af);
  RunningMoments deviations;
  for (int trial = 0; trial < kTrials; ++trial) {
    NeumaierSum sum;
    for (const double t : data) {
      sum.Add(mechanism->Perturb(map.Forward(t), eps, &rng));
    }
    const double estimate =
        map.Backward(sum.Total() / static_cast<double>(data.size()));
    deviations.Add(estimate - true_mean);
  }
  EXPECT_NEAR(deviations.Mean(), model.deviation.mean,
              6.0 * model.deviation.stddev / std::sqrt(kTrials));
  EXPECT_NEAR(deviations.StdDev(), model.deviation.stddev,
              0.12 * model.deviation.stddev);
}

// Theorem 2 bound behaves sanely for every mechanism.
class BerryEsseenSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BerryEsseenSweepTest, BoundFinitePositiveAndDecaysWithReports) {
  const auto mechanism = mech::MakeMechanism(GetParam()).value();
  const auto values = ValueDistribution::Point(
      mechanism->InputDomain().Center() + 0.2 * mechanism->InputDomain().Width() / 2);
  for (const double eps : {0.1, 1.0}) {
    const auto small =
        ModelDeviation(*mechanism, eps, values, 100.0,
                       mechanism->InputDomain())
            .value();
    const auto large =
        ModelDeviation(*mechanism, eps, values, 10000.0,
                       mechanism->InputDomain())
            .value();
    const double bound_small = BerryEsseenBound(small).value();
    const double bound_large = BerryEsseenBound(large).value();
    EXPECT_GT(bound_small, 0.0) << GetParam() << " eps=" << eps;
    EXPECT_TRUE(std::isfinite(bound_small));
    EXPECT_NEAR(bound_small / bound_large, 10.0, 1e-6)
        << GetParam() << " eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, BerryEsseenSweepTest,
                         ::testing::Values("laplace", "scdf", "staircase",
                                           "duchi", "piecewise", "hybrid",
                                           "square_wave"));

// ---------------------------------------------------------------------------
// Theorem 1 composition.

TEST(MultivariateDeviationTest, CreateValidates) {
  EXPECT_FALSE(MultivariateDeviation::Create({}).ok());
  EXPECT_FALSE(MultivariateDeviation::Create({{0.0, 0.0}}).ok());
  EXPECT_FALSE(MultivariateDeviation::Create({{0.0, -1.0}}).ok());
  EXPECT_TRUE(MultivariateDeviation::Create({{0.0, 1.0}, {0.5, 2.0}}).ok());
}

TEST(MultivariateDeviationTest, PdfIsProductOfMarginals) {
  const GaussianDeviation a{0.1, 0.5};
  const GaussianDeviation b{-0.2, 1.5};
  const auto mv = MultivariateDeviation::Create({a, b}).value();
  const std::vector<double> point = {0.3, -0.4};
  EXPECT_NEAR(mv.Pdf(point).value(), a.Pdf(0.3) * b.Pdf(-0.4), 1e-12);
  EXPECT_NEAR(mv.LogPdf(point).value(),
              std::log(a.Pdf(0.3)) + std::log(b.Pdf(-0.4)), 1e-10);
}

TEST(MultivariateDeviationTest, BoxProbabilityFactorizes) {
  const GaussianDeviation a{0.0, 1.0};
  const GaussianDeviation b{0.5, 2.0};
  const auto mv = MultivariateDeviation::Create({a, b}).value();
  EXPECT_NEAR(mv.ProbWithinBox(1.0), a.ProbWithin(1.0) * b.ProbWithin(1.0),
              1e-12);
  const std::vector<double> xi = {1.0, 2.0};
  EXPECT_NEAR(mv.ProbWithinBox(xi).value(),
              a.ProbWithin(1.0) * b.ProbWithin(2.0), 1e-12);
}

TEST(MultivariateDeviationTest, SurvivesThousandsOfDimensions) {
  // Log-space accumulation: 5000 dimensions each with within-prob ~0.38
  // gives ~e^{-4800}, which must underflow to 0.0 without NaN.
  std::vector<GaussianDeviation> dims(5000, GaussianDeviation{0.0, 2.0});
  const auto mv = MultivariateDeviation::Create(std::move(dims)).value();
  const double p = mv.ProbWithinBox(1.0);
  EXPECT_GE(p, 0.0);
  EXPECT_LT(p, 1e-300);
  EXPECT_NEAR(mv.ProbThresholdExceeded(1.0), 1.0, 1e-12);
}

TEST(MultivariateDeviationTest, ThresholdProbabilityForTheorem3) {
  // Low noise: deviations almost surely within 1 => improvement
  // probability lower bound near 0. High noise: near 1.
  const auto quiet =
      MultivariateDeviation::Create(
          std::vector<GaussianDeviation>(10, GaussianDeviation{0.0, 0.01}))
          .value();
  EXPECT_LT(quiet.ProbThresholdExceeded(1.0), 1e-9);
  const auto loud =
      MultivariateDeviation::Create(
          std::vector<GaussianDeviation>(10, GaussianDeviation{0.0, 30.0}))
          .value();
  EXPECT_GT(loud.ProbThresholdExceeded(1.0), 0.99);
}

TEST(MultivariateDeviationTest, DimensionMismatchErrors) {
  const auto mv =
      MultivariateDeviation::Create({GaussianDeviation{0.0, 1.0}}).value();
  const std::vector<double> wrong = {0.0, 1.0};
  EXPECT_FALSE(mv.Pdf(wrong).ok());
  EXPECT_FALSE(mv.ProbWithinBox(wrong).ok());
}

// ---------------------------------------------------------------------------
// Theorem 2 (Berry-Esseen).

TEST(BerryEsseenTest, LaplaceWorkedExample) {
  // Paper Section IV-D: Laplace, r = 1000. With the paper's rho = 3 lambda^3
  // the bound evaluates to ~1.57%; with the exact Laplace third moment
  // rho = 6 lambda^3 it is ~2.69%. The bound is scale invariant, so lambda
  // drops out.
  const double lambda = 1.0;
  const double s3 = std::pow(2.0 * lambda * lambda, 1.5);
  const double paper_rho = 3.0 * lambda * lambda * lambda;
  const double exact_rho = 6.0 * lambda * lambda * lambda;
  EXPECT_NEAR(
      BerryEsseenBound(paper_rho, 2.0 * lambda * lambda, 1000.0).value(),
      0.0157, 0.0002);
  EXPECT_NEAR(
      BerryEsseenBound(exact_rho, 2.0 * lambda * lambda, 1000.0).value(),
      0.0269, 0.0003);
  (void)s3;
}

TEST(BerryEsseenTest, FromLaplaceModelUsesExactRho) {
  const auto mech = mech::MakeMechanism("laplace").value();
  const auto model =
      ModelDeviation(*mech, 1.0, ValueDistribution::Point(0.0), 1000.0)
          .value();
  EXPECT_NEAR(BerryEsseenBound(model).value(), 0.0269, 0.0003);
}

TEST(BerryEsseenTest, DecaysAsOneOverSqrtReports) {
  const double rho = 6.0;
  const double var = 2.0;
  const double at_100 = BerryEsseenBound(rho, var, 100.0).value();
  const double at_10000 = BerryEsseenBound(rho, var, 10000.0).value();
  EXPECT_NEAR(at_100 / at_10000, 10.0, 1e-9);
}

TEST(BerryEsseenTest, ScaleInvariant) {
  // Scaling the report by c scales rho by c^3 and var by c^2: bound fixed.
  const double base = BerryEsseenBound(6.0, 2.0, 500.0).value();
  const double scaled =
      BerryEsseenBound(6.0 * 8.0, 2.0 * 4.0, 500.0).value();
  EXPECT_NEAR(base, scaled, 1e-12);
}

TEST(BerryEsseenTest, Validates) {
  EXPECT_FALSE(BerryEsseenBound(1.0, 0.0, 10.0).ok());
  EXPECT_FALSE(BerryEsseenBound(-1.0, 1.0, 10.0).ok());
  EXPECT_FALSE(BerryEsseenBound(1.0, 1.0, 0.0).ok());
}

// ---------------------------------------------------------------------------
// Table II benchmark engine.

TEST(BenchmarkTest, TableTwoWinnersMatchPaper) {
  // Piecewise on its native [-1, 1], Square wave on its native [0, 1],
  // exactly as the case study sets them up.
  std::vector<BenchmarkSpec> specs(2);
  specs[0].mechanism = mech::MakeMechanism("piecewise").value();
  specs[0].values = CaseStudyValues();
  specs[0].data_domain = {-1.0, 1.0};
  specs[1].mechanism = mech::MakeMechanism("square_wave").value();
  specs[1].values = CaseStudyValues();
  specs[1].data_domain = {0.0, 1.0};

  const std::vector<double> xis = {0.001, 0.01, 0.05, 0.1};
  const auto table =
      BenchmarkMechanisms(specs, 0.001, 10000.0, xis).value();
  ASSERT_EQ(table.size(), 2u);

  // Paper Table II row 1 (Piecewise): 3.46e-5, 3.46e-4, ~0.002, ~0.004.
  EXPECT_NEAR(table[0].probabilities[0], 3.46e-5, 0.05e-5);
  EXPECT_NEAR(table[0].probabilities[1], 3.46e-4, 0.05e-4);
  EXPECT_NEAR(table[0].probabilities[2], 0.002, 0.0003);
  EXPECT_NEAR(table[0].probabilities[3], 0.004, 0.0006);

  // Square wave: negligible at small xi, dominant at large xi.
  EXPECT_LT(table[1].probabilities[0], 1e-10);
  EXPECT_LT(table[1].probabilities[1], 1e-6);
  EXPECT_GT(table[1].probabilities[2], 0.5);
  EXPECT_GT(table[1].probabilities[3], 0.999);

  // Winners flip exactly as the paper concludes.
  const auto winners = WinnersPerSupremum(table);
  EXPECT_EQ(winners[0], 0u);
  EXPECT_EQ(winners[1], 0u);
  EXPECT_EQ(winners[2], 1u);
  EXPECT_EQ(winners[3], 1u);
}

TEST(BenchmarkTest, Validates) {
  std::vector<BenchmarkSpec> empty;
  const std::vector<double> xis = {0.1};
  EXPECT_FALSE(BenchmarkMechanisms(empty, 0.1, 10.0, xis).ok());
  std::vector<BenchmarkSpec> specs(1);
  specs[0].mechanism = mech::MakeMechanism("laplace").value();
  const std::vector<double> no_xis;
  EXPECT_FALSE(BenchmarkMechanisms(specs, 0.1, 10.0, no_xis).ok());
  specs[0].mechanism = nullptr;
  EXPECT_FALSE(BenchmarkMechanisms(specs, 0.1, 10.0, xis).ok());
}

TEST(BenchmarkTest, WinnersHandlesEmptyInput) {
  EXPECT_TRUE(WinnersPerSupremum({}).empty());
}

// ---------------------------------------------------------------------------
// The Section IV-B calibration step (ExpectedNativeBias).

TEST(ExpectedNativeBiasTest, ZeroForUnbiasedMechanisms) {
  const auto mech = mech::MakeMechanism("piecewise").value();
  const std::vector<ValueDistribution> dists(3, CaseStudyValues());
  const auto bias = ExpectedNativeBias(*mech, 0.5, dists).value();
  ASSERT_EQ(bias.size(), 3u);
  for (const double b : bias) EXPECT_EQ(b, 0.0);
}

TEST(ExpectedNativeBiasTest, MatchesSquareWaveBiasFormula) {
  const auto mech = mech::MakeMechanism("square_wave").value();
  const std::vector<ValueDistribution> dists = {CaseStudyValues()};
  const auto bias =
      ExpectedNativeBias(*mech, 0.001, dists, {0.0, 1.0}).value();
  EXPECT_NEAR(bias[0], -0.049, 0.002);  // The case-study delta_j.
}

TEST(ExpectedNativeBiasTest, CalibrationDebiasesSquareWaveAggregation) {
  // Full protocol on one dimension: calibrated aggregation must land much
  // closer to the truth than the naive average.
  const auto mech = mech::MakeMechanism("square_wave").value();
  const double eps = 0.5;
  Rng rng(0xCA1B);
  std::vector<double> data(40000);
  for (double& t : data) t = Clamp(0.2 + 0.05 * rng.Gaussian(), 0.0, 1.0);
  const auto values = ValueDistribution::FromSamples(data, 32).value();
  const std::vector<ValueDistribution> dists = {values};
  const auto bias = ExpectedNativeBias(*mech, eps, dists, {0.0, 1.0}).value();

  NeumaierSum sum;
  for (const double t : data) sum.Add(mech->Perturb(t, eps, &rng));
  const double naive = sum.Total() / static_cast<double>(data.size());
  const double calibrated = naive - bias[0];
  const double truth = Mean(data);
  EXPECT_GT(std::abs(naive - truth), 0.05);  // The raw bias is material.
  EXPECT_LT(std::abs(calibrated - truth), 0.01);
}

TEST(ExpectedNativeBiasTest, Validates) {
  const auto mech = mech::MakeMechanism("laplace").value();
  EXPECT_FALSE(ExpectedNativeBias(*mech, 0.5, {}).ok());
  const std::vector<ValueDistribution> dists = {CaseStudyValues()};
  EXPECT_FALSE(ExpectedNativeBias(*mech, -0.5, dists).ok());
}

}  // namespace
}  // namespace framework
}  // namespace hdldp
