// Unit tests for the client/collector protocol: reports, sampling, budget
// splitting, aggregation, metrics, and the simulation pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"
#include "protocol/client.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"
#include "protocol/report.h"

namespace hdldp {
namespace protocol {
namespace {

mech::MechanismPtr Mech(std::string_view name) {
  return mech::MakeMechanism(name).value();
}

TEST(ReportTest, ValidateAcceptsWellFormed) {
  UserReport r;
  r.entries = {{0, 0.5}, {3, -0.2}};
  EXPECT_TRUE(ValidateReport(r, 5, 2, -1.0, 1.0).ok());
}

TEST(ReportTest, ValidateRejectsMalformed) {
  UserReport r;
  r.entries = {{0, 0.5}, {3, -0.2}};
  EXPECT_FALSE(ValidateReport(r, 5, 3, -1.0, 1.0).ok());  // Wrong m.
  r.entries = {{0, 0.5}, {7, -0.2}};
  EXPECT_FALSE(ValidateReport(r, 5, 2, -1.0, 1.0).ok());  // Bad index.
  r.entries = {{2, 0.5}, {2, -0.2}};
  EXPECT_FALSE(ValidateReport(r, 5, 2, -1.0, 1.0).ok());  // Duplicate.
  r.entries = {{0, 5.0}, {1, 0.0}};
  EXPECT_FALSE(ValidateReport(r, 5, 2, -1.0, 1.0).ok());  // Out of domain.
  r.entries = {{0, std::nan("")}, {1, 0.0}};
  EXPECT_FALSE(ValidateReport(r, 5, 2, -1.0, 1.0).ok());  // NaN.
}

// ValidateReport's body as it stood with a hash set for duplicates: one
// pass in entry order, index then repeat then value per entry. The
// allocation-free validator must return its code and message on every
// input. The one intended difference is the finite-value rule the
// header always promised: `reject_infinity` false is the old body,
// which let ±inf through whenever the admissible range was unbounded.
Status HashSetValidateReference(const UserReport& report,
                                std::size_t num_dims,
                                std::size_t expected_entries,
                                double output_lo, double output_hi,
                                bool reject_infinity) {
  if (report.entries.size() != expected_entries) {
    return Status::InvalidArgument(
        "report carries " + std::to_string(report.entries.size()) +
        " entries, expected " + std::to_string(expected_entries));
  }
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(report.entries.size());
  for (const DimensionReport& entry : report.entries) {
    if (entry.dimension >= num_dims) {
      return Status::OutOfRange("report dimension index out of range");
    }
    if (!seen.insert(entry.dimension).second) {
      return Status::InvalidArgument("report repeats a dimension");
    }
    if (std::isnan(entry.value) ||
        (reject_infinity && std::isinf(entry.value)) ||
        entry.value < output_lo || entry.value > output_hi) {
      return Status::OutOfRange("report value outside mechanism output domain");
    }
  }
  return Status::OK();
}

bool HasInfinity(const UserReport& report) {
  for (const DimensionReport& entry : report.entries) {
    if (std::isinf(entry.value)) return true;
  }
  return false;
}

// Checks one input against the reference: same code and message always,
// and the old (infinity-admitting) body agrees too unless the report
// carries an infinity. Returns whether the two references disagreed.
bool ExpectMatchesReference(const UserReport& report, std::size_t num_dims,
                            std::size_t expected, double lo, double hi) {
  const Status got = ValidateReport(report, num_dims, expected, lo, hi);
  const Status want =
      HashSetValidateReference(report, num_dims, expected, lo, hi, true);
  const Status old =
      HashSetValidateReference(report, num_dims, expected, lo, hi, false);
  std::string dims;
  for (const DimensionReport& e : report.entries) {
    dims += std::to_string(e.dimension) + ":" + std::to_string(e.value) + " ";
  }
  EXPECT_EQ(got.code(), want.code()) << dims;
  EXPECT_EQ(got.message(), want.message()) << dims;
  const bool diverged =
      old.code() != want.code() || old.message() != want.message();
  if (diverged) {
    EXPECT_TRUE(HasInfinity(report)) << dims;
  }
  return diverged;
}

UserReport Entries(std::initializer_list<DimensionReport> entries) {
  UserReport report;
  report.entries = entries;
  return report;
}

TEST(ReportTest, ValidateMatchesTheHashSetReferenceOnAdversarialReports) {
  const double nan = std::nan("");
  const std::vector<UserReport> cases = {
      Entries({}),
      Entries({{4, 0.1}}),
      Entries({{1, 0.1}, {2, 0.2}, {3, 0.3}, {4, 0.4}}),
      // Unordered without repeats: every fallback lookup misses.
      Entries({{4, 0.1}, {3, 0.2}, {2, 0.3}, {1, 0.4}}),
      Entries({{2, 0.1}, {5, 0.2}, {0, 0.3}, {7, 0.4}, {6, 0.5}}),
      // Repeats at the front, the middle and the end.
      Entries({{2, 0.1}, {2, 0.2}, {3, 0.3}, {5, 0.4}}),
      Entries({{1, 0.1}, {3, 0.2}, {3, 0.3}, {5, 0.4}}),
      Entries({{1, 0.1}, {3, 0.2}, {5, 0.3}, {5, 0.4}}),
      Entries({{1, 0.1}, {3, 0.2}, {5, 0.3}, {1, 0.4}}),
      // After the first descent: a repeat of the ascending prefix (binary
      // search) and a repeat inside the unordered tail (scan).
      Entries({{1, 0.1}, {4, 0.2}, {6, 0.3}, {2, 0.4}, {4, 0.5}}),
      Entries({{1, 0.1}, {4, 0.2}, {6, 0.3}, {2, 0.4}, {3, 0.5}, {2, 0.6}}),
      Entries({{6, 0.1}, {5, 0.2}, {6, 0.3}}),
      // A bad index before and after a repeat: the first one in entry
      // order decides.
      Entries({{9, 0.1}, {2, 0.2}, {2, 0.3}}),
      Entries({{2, 0.1}, {2, 0.2}, {9, 0.3}}),
      Entries({{3, 0.1}, {1, 0.2}, {9, 0.3}, {1, 0.4}}),
      // Out-of-domain and NaN values before and after a repeat.
      Entries({{1, nan}, {2, 0.2}, {2, 0.3}}),
      Entries({{1, 0.1}, {1, nan}}),
      Entries({{1, 0.1}, {1, 0.2}, {2, nan}}),
      Entries({{3, 0.1}, {2, 7.5}, {3, 0.3}}),
      Entries({{3, 0.1}, {3, 7.5}}),
  };
  for (const UserReport& report : cases) {
    for (const std::size_t expected :
         {report.entries.size(), report.entries.size() + 1}) {
      ExpectMatchesReference(report, 8, expected, -1.0, 1.0);
      ExpectMatchesReference(report, 8, expected,
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::infinity());
    }
  }
}

TEST(ReportTest, ValidateMatchesTheHashSetReferenceOnRandomReports) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(2024);
  std::size_t diverged = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t num_dims = 1 + rng.UniformInt(24);
    const std::size_t m = rng.UniformInt(12);
    UserReport report;
    for (std::size_t i = 0; i < m; ++i) {
      // A few indices past num_dims; small domains force repeats.
      const auto dim =
          static_cast<std::uint32_t>(rng.UniformInt(num_dims + 2));
      double value = rng.Uniform(-1.2, 1.2);
      const std::uint64_t special = rng.UniformInt(40);
      if (special == 0) value = std::nan("");
      if (special == 1) value = kInf;
      if (special == 2) value = -kInf;
      report.entries.push_back({dim, value});
    }
    // Half the reports ascend, the shape every decoded payload has.
    if (rng.UniformInt(2) == 0) {
      std::sort(report.entries.begin(), report.entries.end(),
                [](const DimensionReport& a, const DimensionReport& b) {
                  return a.dimension < b.dimension;
                });
    }
    const std::size_t expected = rng.UniformInt(8) == 0 ? m + 1 : m;
    const bool bounded = rng.UniformInt(2) == 0;
    diverged += ExpectMatchesReference(report, num_dims, expected,
                                       bounded ? -1.0 : -kInf,
                                       bounded ? 1.0 : kInf);
  }
  // The infinity rule does change outcomes on unbounded ranges.
  EXPECT_GT(diverged, 0u);
}

TEST(ReportTest, ValidateRejectsInfinityEvenOnAnUnboundedRange) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The one place the hash-set validator and this one disagree: it
  // admitted ±inf whenever the range was unbounded (Laplace).
  for (const double value : {kInf, -kInf}) {
    const UserReport report = Entries({{0, 0.5}, {1, value}});
    EXPECT_TRUE(
        HashSetValidateReference(report, 2, 2, -kInf, kInf, false).ok());
    const Status status = ValidateReport(report, 2, 2, -kInf, kInf);
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
    EXPECT_EQ(status.message(), "report value outside mechanism output domain");
  }
}

TEST(ClientTest, CreateValidates) {
  ClientOptions opts;
  opts.total_epsilon = 1.0;
  opts.report_dims = 3;
  EXPECT_TRUE(Client::Create(Mech("laplace"), 10, opts).ok());
  EXPECT_FALSE(Client::Create(nullptr, 10, opts).ok());
  EXPECT_FALSE(Client::Create(Mech("laplace"), 0, opts).ok());
  opts.report_dims = 20;
  EXPECT_FALSE(Client::Create(Mech("laplace"), 10, opts).ok());
  opts.report_dims = 3;
  opts.total_epsilon = 0.0;
  EXPECT_FALSE(Client::Create(Mech("laplace"), 10, opts).ok());
}

TEST(ClientTest, BudgetSplitsAcrossReportedDims) {
  ClientOptions opts;
  opts.total_epsilon = 2.0;
  opts.report_dims = 4;
  const auto client = Client::Create(Mech("piecewise"), 10, opts).value();
  EXPECT_DOUBLE_EQ(client.PerDimensionEpsilon(), 0.5);
  EXPECT_EQ(client.report_dims(), 4u);
}

TEST(ClientTest, ZeroReportDimsMeansAll) {
  ClientOptions opts;
  opts.total_epsilon = 1.0;
  opts.report_dims = 0;
  const auto client = Client::Create(Mech("laplace"), 8, opts).value();
  EXPECT_EQ(client.report_dims(), 8u);
  EXPECT_DOUBLE_EQ(client.PerDimensionEpsilon(), 1.0 / 8.0);
}

TEST(ClientTest, ReportShapeIsValid) {
  ClientOptions opts;
  opts.total_epsilon = 1.0;
  opts.report_dims = 5;
  const auto client = Client::Create(Mech("piecewise"), 12, opts).value();
  const auto out_domain =
      client.mechanism().OutputDomain(client.PerDimensionEpsilon()).value();
  Rng rng(1);
  std::vector<double> tuple(12, 0.25);
  for (int i = 0; i < 50; ++i) {
    const auto report = client.Report(tuple, &rng).value();
    EXPECT_TRUE(
        ValidateReport(report, 12, 5, out_domain.lo, out_domain.hi).ok());
  }
}

TEST(ClientTest, ReportRejectsWrongTupleLength) {
  ClientOptions opts;
  opts.total_epsilon = 1.0;
  const auto client = Client::Create(Mech("laplace"), 4, opts).value();
  Rng rng(2);
  std::vector<double> wrong(3, 0.0);
  EXPECT_FALSE(client.Report(wrong, &rng).ok());
}

TEST(ClientTest, SquareWaveReportsNativeSpace) {
  // Data -1 maps to native 0; with tiny noise window the report must stay
  // in [-b, 1+b], not [-1, 1].
  ClientOptions opts;
  opts.total_epsilon = 2.0;
  opts.report_dims = 1;
  const auto client = Client::Create(Mech("square_wave"), 1, opts).value();
  Rng rng(3);
  std::vector<double> tuple = {-1.0};
  for (int i = 0; i < 200; ++i) {
    const auto report = client.Report(tuple, &rng).value();
    ASSERT_GE(report.entries[0].value, -0.5 - 1e-9);
    ASSERT_LE(report.entries[0].value, 1.5 + 1e-9);
  }
}

TEST(AggregatorTest, AveragesPerDimension) {
  const auto agg_or = MeanAggregator::Create(3, mech::DomainMap());
  auto agg = agg_or.value();
  agg.Consume(0, 1.0);
  agg.Consume(0, 3.0);
  agg.Consume(2, -0.5);
  EXPECT_EQ(agg.ReportCount(0), 2);
  EXPECT_EQ(agg.ReportCount(1), 0);
  EXPECT_EQ(agg.ReportCount(2), 1);
  EXPECT_EQ(agg.TotalReports(), 3);
  const auto mean = agg.EstimatedMean();
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 0.0);  // No reports -> domain midpoint.
  EXPECT_DOUBLE_EQ(mean[2], -0.5);
}

TEST(AggregatorTest, MapsNativeEstimatesBack) {
  // Native space [0, 1], data space [-1, 1].
  const auto map =
      mech::DomainMap::Between({-1.0, 1.0}, {0.0, 1.0}).value();
  auto agg = MeanAggregator::Create(1, map).value();
  agg.Consume(0, 0.75);  // Native mean 0.75 -> data 0.5.
  EXPECT_DOUBLE_EQ(agg.EstimatedMean()[0], 0.5);
}

TEST(AggregatorTest, BiasCorrectionSubtractsInNativeSpace) {
  auto agg = MeanAggregator::Create(2, mech::DomainMap()).value();
  ASSERT_TRUE(agg.SetBiasCorrection({0.1, -0.2}).ok());
  agg.Consume(0, 1.0);
  agg.Consume(1, 1.0);
  const auto mean = agg.EstimatedMean();
  EXPECT_DOUBLE_EQ(mean[0], 0.9);
  EXPECT_DOUBLE_EQ(mean[1], 1.2);
  EXPECT_FALSE(agg.SetBiasCorrection({0.0}).ok());  // Wrong length.
}

TEST(AggregatorTest, ConsumeReportValidatesDimensions) {
  auto agg = MeanAggregator::Create(2, mech::DomainMap()).value();
  UserReport bad;
  bad.entries = {{5, 0.0}};
  EXPECT_FALSE(agg.ConsumeReport(bad).ok());
  EXPECT_EQ(agg.TotalReports(), 0);  // Rejected atomically.
  UserReport good;
  good.entries = {{0, 0.5}, {1, -0.5}};
  EXPECT_TRUE(agg.ConsumeReport(good).ok());
  EXPECT_EQ(agg.TotalReports(), 2);
}

TEST(MetricsTest, KnownValues) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 0.0, 7.0};
  EXPECT_DOUBLE_EQ(L2Distance(a, b).value(), std::sqrt(4.0 + 16.0));
  EXPECT_DOUBLE_EQ(MeanSquaredError(a, b).value(), 20.0 / 3.0);
}

TEST(MetricsTest, MseIsSquaredL2OverD) {
  const std::vector<double> a = {0.5, -0.25, 0.75, 0.0};
  const std::vector<double> b = {-0.5, 0.25, 0.5, 1.0};
  const double l2 = L2Distance(a, b).value();
  EXPECT_NEAR(MeanSquaredError(a, b).value(), l2 * l2 / 4.0, 1e-14);
}

TEST(MetricsTest, Validates) {
  EXPECT_FALSE(L2Distance({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(MeanSquaredError({}, {}).ok());
}

TEST(PipelineTest, ReportCountsMatchSampling) {
  Rng rng(20);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 5000, .num_dims = 10},
                     &rng).value();
  PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.report_dims = 3;
  opts.seed = 5;
  const auto result =
      RunMeanEstimation(dataset, Mech("piecewise"), opts).value();
  std::int64_t total = 0;
  for (const auto r : result.report_counts) total += r;
  EXPECT_EQ(total, 5000 * 3);
  // E[r_j] = n m / d = 1500; all counts within a generous binomial band.
  for (const auto r : result.report_counts) {
    EXPECT_NEAR(static_cast<double>(r), 1500.0, 6.0 * std::sqrt(1500.0));
  }
  EXPECT_DOUBLE_EQ(result.per_dim_epsilon, 1.0 / 3.0);
}

TEST(PipelineTest, EstimateConvergesWithGenerousBudget) {
  Rng rng(21);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 60000, .num_dims = 2},
                     &rng).value();
  PipelineOptions opts;
  opts.total_epsilon = 8.0;  // 4 per dimension: low noise.
  opts.seed = 6;
  for (const auto name : {"laplace", "piecewise", "square_wave", "duchi",
                          "hybrid", "scdf", "staircase"}) {
    const auto result = RunMeanEstimation(dataset, Mech(name), opts).value();
    EXPECT_LT(result.mse, 0.05) << name;
  }
}

TEST(PipelineTest, DeterministicUnderSeed) {
  Rng rng(22);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 500, .num_dims = 4},
                     &rng).value();
  PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 7;
  const auto a = RunMeanEstimation(dataset, Mech("laplace"), opts).value();
  const auto b = RunMeanEstimation(dataset, Mech("laplace"), opts).value();
  EXPECT_EQ(a.estimated_mean, b.estimated_mean);
  opts.seed = 8;
  const auto c = RunMeanEstimation(dataset, Mech("laplace"), opts).value();
  EXPECT_NE(a.estimated_mean, c.estimated_mean);
}

TEST(PipelineTest, MseGrowsWithDimensionsAtFixedBudget) {
  // The dimensionality curse the paper targets: more dimensions, thinner
  // per-dimension budget, worse MSE.
  Rng rng(23);
  PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 9;
  const auto small =
      data::Generate(data::UniformSpec{.num_users = 20000, .num_dims = 2},
                     &rng).value();
  const auto large =
      data::Generate(data::UniformSpec{.num_users = 20000, .num_dims = 64},
                     &rng).value();
  const double mse_small =
      RunMeanEstimation(small, Mech("piecewise"), opts).value().mse;
  const double mse_large =
      RunMeanEstimation(large, Mech("piecewise"), opts).value().mse;
  EXPECT_GT(mse_large, 10.0 * mse_small);
}

TEST(SingleDimensionTest, MatchesExpectedInclusion) {
  Rng data_rng(24);
  std::vector<double> values(20000);
  for (double& v : values) v = data_rng.Uniform(-1.0, 1.0);
  Rng rng(25);
  const auto mech = Mech("laplace");
  const auto result =
      RunSingleDimension(values, *mech, 0.5, 0.25, &rng).value();
  EXPECT_NEAR(static_cast<double>(result.report_count), 5000.0,
              6.0 * std::sqrt(5000.0 * 0.75));
}

TEST(SingleDimensionTest, EstimatesTheMean) {
  std::vector<double> values(50000, 0.4);
  Rng rng(26);
  const auto mech = Mech("piecewise");
  const auto result = RunSingleDimension(values, *mech, 2.0, 1.0, &rng).value();
  EXPECT_EQ(result.report_count, 50000);
  EXPECT_NEAR(result.estimated_mean, 0.4, 0.05);
}

TEST(SingleDimensionTest, Validates) {
  Rng rng(27);
  const auto mech = Mech("laplace");
  std::vector<double> empty;
  EXPECT_FALSE(RunSingleDimension(empty, *mech, 1.0, 0.5, &rng).ok());
  std::vector<double> one = {0.0};
  EXPECT_FALSE(RunSingleDimension(one, *mech, 1.0, 0.0, &rng).ok());
  EXPECT_FALSE(RunSingleDimension(one, *mech, -1.0, 0.5, &rng).ok());
}

}  // namespace
}  // namespace protocol
}  // namespace hdldp
