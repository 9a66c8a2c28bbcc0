// Tests for the budget accountant, the budget each pipeline reports and
// the report wire format, including malformed-input (failure-injection)
// coverage for the decoder.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "freq/pipeline.h"
#include "hdr4me/variance.h"
#include "mech/registry.h"
#include "protocol/budget.h"
#include "protocol/pipeline.h"
#include "protocol/wire.h"

namespace hdldp {
namespace protocol {
namespace {

// ---------------------------------------------------------------------------
// BudgetAccountant.

TEST(BudgetTest, CreateValidates) {
  EXPECT_FALSE(BudgetAccountant::Create(0.0).ok());
  EXPECT_FALSE(BudgetAccountant::Create(-1.0).ok());
  EXPECT_FALSE(
      BudgetAccountant::Create(std::numeric_limits<double>::infinity()).ok());
  EXPECT_TRUE(BudgetAccountant::Create(0.5).ok());
}

TEST(BudgetTest, SpendTracksAndStops) {
  auto acct = BudgetAccountant::Create(1.0).value();
  EXPECT_DOUBLE_EQ(acct.remaining(), 1.0);
  EXPECT_TRUE(acct.Spend(0.4).ok());
  EXPECT_TRUE(acct.Spend(0.4).ok());
  EXPECT_NEAR(acct.spent(), 0.8, 1e-12);
  EXPECT_NEAR(acct.remaining(), 0.2, 1e-12);
  const Status overdraft = acct.Spend(0.3);
  EXPECT_EQ(overdraft.code(), StatusCode::kFailedPrecondition);
  // Failed spends must not charge.
  EXPECT_NEAR(acct.spent(), 0.8, 1e-12);
  EXPECT_TRUE(acct.Spend(0.2).ok());
  EXPECT_DOUBLE_EQ(acct.remaining(), 0.0);
}

TEST(BudgetTest, SpendRejectsBadAmounts) {
  auto acct = BudgetAccountant::Create(1.0).value();
  EXPECT_FALSE(acct.Spend(0.0).ok());
  EXPECT_FALSE(acct.Spend(-0.1).ok());
  EXPECT_FALSE(acct.Spend(std::nan("")).ok());
}

TEST(BudgetTest, CompositionRoundingIsTolerated) {
  // Splitting eps over m dims and spending m times must exactly succeed
  // despite float rounding.
  auto acct = BudgetAccountant::Create(1.0).value();
  const double per_dim =
      BudgetAccountant::PerDimensionBudget(1.0, 7).value();
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(acct.Spend(per_dim).ok()) << i;
  }
  EXPECT_FALSE(acct.Spend(per_dim).ok());
}

TEST(BudgetTest, SplitHelpers) {
  EXPECT_DOUBLE_EQ(BudgetAccountant::PerDimensionBudget(2.0, 4).value(), 0.5);
  EXPECT_DOUBLE_EQ(BudgetAccountant::PerEntryBudget(2.0, 4).value(), 0.25);
  EXPECT_FALSE(BudgetAccountant::PerDimensionBudget(0.0, 4).ok());
  EXPECT_FALSE(BudgetAccountant::PerDimensionBudget(1.0, 0).ok());
  EXPECT_FALSE(BudgetAccountant::PerEntryBudget(-1.0, 2).ok());
}

// The budget every run reports, over the whole (statistic, encoding)
// matrix at m = d and m < d: eps/m per numeric mean value (and per value
// of each variance half), the full eps for the one Hadamard bit, eps/(2m)
// per one-hot entry (a one-hot dimension has L1 sensitivity 2) and eps/m
// per oracle-randomized question.
TEST(BudgetTest, EveryRunReportsItsEncodingsBudget) {
  enum class Statistic { kMean, kFrequency, kVariance };
  struct Row {
    const char* name;
    Statistic statistic;
    ReportEncoding encoding;
    double (*budget)(double eps, double m);
  };
  const Row rows[] = {
      {"mean dense", Statistic::kMean, ReportEncoding::kDense,
       [](double eps, double m) { return eps / m; }},
      {"mean hadamard1", Statistic::kMean, ReportEncoding::kHadamard1,
       [](double eps, double) { return eps; }},
      {"freq dense", Statistic::kFrequency, ReportEncoding::kDense,
       [](double eps, double m) { return eps / (2.0 * m); }},
      {"freq oue", Statistic::kFrequency, ReportEncoding::kOue,
       [](double eps, double m) { return eps / m; }},
      {"freq olh", Statistic::kFrequency, ReportEncoding::kOlh,
       [](double eps, double m) { return eps / m; }},
      {"variance", Statistic::kVariance, ReportEncoding::kDense,
       [](double eps, double m) { return eps / m; }},
  };
  constexpr std::size_t kDims = 4;
  constexpr std::size_t kUsers = 300;
  constexpr double kEpsilon = 2.0;
  Rng rng(41);
  const data::Dataset numeric =
      data::Generate(data::UniformSpec{.num_users = kUsers, .num_dims = kDims},
                     &rng)
          .value();
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>(kDims, 3))
          .value();
  const auto categorical =
      freq::GenerateCategorical(kUsers, schema, 1.0, &rng).value();
  const auto piecewise = [] {
    return mech::MakeMechanism("piecewise").value();
  };
  for (const Row& row : rows) {
    for (const std::size_t m : {kDims, std::size_t{2}}) {
      SCOPED_TRACE(std::string(row.name) + " m=" + std::to_string(m));
      double reported = 0.0;
      switch (row.statistic) {
        case Statistic::kMean: {
          PipelineOptions opts;
          opts.total_epsilon = kEpsilon;
          opts.report_dims = m;
          opts.encoding = row.encoding;
          reported = RunMeanEstimation(numeric, piecewise(), opts)
                         .value()
                         .per_dim_epsilon;
          break;
        }
        case Statistic::kFrequency: {
          freq::FrequencyOptions opts;
          opts.total_epsilon = kEpsilon;
          opts.report_dims = m;
          opts.encoding = row.encoding;
          const bool oracle = row.encoding != ReportEncoding::kDense;
          reported = freq::RunFrequencyEstimation(
                         categorical, oracle ? nullptr : piecewise(), opts)
                         .value()
                         .per_entry_epsilon;
          break;
        }
        case Statistic::kVariance: {
          hdr4me::VarianceOptions opts;
          opts.total_epsilon = kEpsilon;
          opts.report_dims = m;
          reported = hdr4me::RunVarianceEstimation(numeric, piecewise(), opts)
                         .value()
                         .per_dim_epsilon;
          break;
        }
      }
      EXPECT_DOUBLE_EQ(reported,
                       row.budget(kEpsilon, static_cast<double>(m)));
    }
  }
}

// ---------------------------------------------------------------------------
// Wire format.

UserReport SampleReport() {
  UserReport r;
  r.entries = {{7, 0.25}, {0, -1.5}, {300, 1e-9}, {65536, -0.0}};
  return r;
}

TEST(WireTest, RoundTripsSortedByDimension) {
  const auto bytes = EncodeReport(SampleReport()).value();
  const auto decoded = DecodeReport(bytes).value();
  ASSERT_EQ(decoded.entries.size(), 4u);
  EXPECT_EQ(decoded.entries[0].dimension, 0u);
  EXPECT_EQ(decoded.entries[0].value, -1.5);
  EXPECT_EQ(decoded.entries[1].dimension, 7u);
  EXPECT_EQ(decoded.entries[2].dimension, 300u);
  EXPECT_EQ(decoded.entries[3].dimension, 65536u);
  EXPECT_EQ(decoded.entries[3].value, -0.0);
}

TEST(WireTest, EmptyReportRoundTrips) {
  const auto bytes = EncodeReport(UserReport{}).value();
  EXPECT_EQ(bytes.size(), 2u);  // Version + count.
  EXPECT_TRUE(DecodeReport(bytes).value().entries.empty());
}

TEST(WireTest, RandomizedRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    UserReport report;
    const auto m = static_cast<std::size_t>(rng.UniformInt(50));
    std::vector<std::uint32_t> dims;
    rng.SampleWithoutReplacement(100000, m, &dims);
    for (const auto d : dims) {
      report.entries.push_back(
          DimensionReport{d, rng.Uniform(-1e6, 1e6)});
    }
    const auto bytes = EncodeReport(report).value();
    const auto decoded = DecodeReport(bytes).value();
    ASSERT_EQ(decoded.entries.size(), report.entries.size());
    // Decoded entries are exactly the originals, sorted by dimension.
    auto sorted = report.entries;
    std::sort(sorted.begin(), sorted.end(),
              [](const DimensionReport& a, const DimensionReport& b) {
                return a.dimension < b.dimension;
              });
    for (std::size_t i = 0; i < decoded.entries.size(); ++i) {
      ASSERT_EQ(decoded.entries[i].dimension, sorted[i].dimension);
      ASSERT_EQ(decoded.entries[i].value, sorted[i].value);
      if (i > 0) {
        ASSERT_LT(decoded.entries[i - 1].dimension,
                  decoded.entries[i].dimension);
      }
    }
  }
}

TEST(WireTest, EncodeRejectsBadReports) {
  UserReport dup;
  dup.entries = {{3, 1.0}, {3, 2.0}};
  EXPECT_FALSE(EncodeReport(dup).ok());
  UserReport nan_report;
  nan_report.entries = {{1, std::nan("")}};
  EXPECT_FALSE(EncodeReport(nan_report).ok());
}

TEST(WireTest, DecodeRejectsMalformedBuffers) {
  const auto good = EncodeReport(SampleReport()).value();

  // Empty buffer.
  EXPECT_FALSE(DecodeReport({}).ok());
  // Unknown version.
  auto bad_version = good;
  bad_version[0] = 9;
  EXPECT_FALSE(DecodeReport(bad_version).ok());
  // Truncations at every prefix length must error, never crash.
  for (std::size_t len = 1; len < good.size(); ++len) {
    EXPECT_FALSE(
        DecodeReport(std::span<const std::uint8_t>(good.data(), len)).ok())
        << "prefix " << len;
  }
  // Trailing garbage.
  auto trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(DecodeReport(trailing).ok());
  // Absurd entry count in a tiny buffer.
  std::vector<std::uint8_t> huge_count = {kWireVersion, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(DecodeReport(huge_count).ok());
}

TEST(WireTest, DecodeRejectsByteFlips) {
  // Flip every byte of a valid encoding; the decoder must either reject
  // the buffer or produce a structurally valid report — never crash.
  const auto good = EncodeReport(SampleReport()).value();
  for (std::size_t i = 0; i < good.size(); ++i) {
    auto mutated = good;
    mutated[i] ^= 0xFF;
    const auto result = DecodeReport(mutated);
    if (result.ok()) {
      for (std::size_t k = 1; k < result.value().entries.size(); ++k) {
        EXPECT_LT(result.value().entries[k - 1].dimension,
                  result.value().entries[k].dimension);
      }
    }
  }
}

TEST(WireTest, DeltaEncodingIsCompact) {
  // 64 consecutive dimensions: one byte per delta after the first.
  UserReport dense;
  for (std::uint32_t j = 1000; j < 1064; ++j) {
    dense.entries.push_back(DimensionReport{j, 0.5});
  }
  const auto bytes = EncodeReport(dense).value();
  // Version + count + first dim (2B) + 63 deltas (1B) + 64 values (8B).
  EXPECT_LE(bytes.size(), 2u + 2u + 63u + 64u * 8u);
}

}  // namespace
}  // namespace protocol
}  // namespace hdldp
