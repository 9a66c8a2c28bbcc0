// Tests for CSV dataset I/O, support-recovery metrics, and the
// framework/HDR4ME convenience APIs added on top of the core reproduction
// (PredictedMse, CoverageInterval, Theorem 3/4 improvement bounds).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/rng.h"
#include "data/generators.h"
#include "data/io.h"
#include "framework/deviation_model.h"
#include "hdr4me/recalibrate.h"
#include "mech/registry.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  void Write(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// CSV I/O.

TEST(CsvTest, LoadsRectangularData) {
  TempFile file("ok.csv");
  file.Write("1.5,-2.25,3\n0,0.125,-1e-3\n");
  const auto data = data::LoadCsv(file.path()).value();
  EXPECT_EQ(data.num_users(), 2u);
  EXPECT_EQ(data.num_dims(), 3u);
  EXPECT_EQ(data.At(0, 0), 1.5);
  EXPECT_EQ(data.At(0, 1), -2.25);
  EXPECT_EQ(data.At(1, 2), -1e-3);
}

TEST(CsvTest, SkipsHeaderAndBlankLinesAndCrlf) {
  TempFile file("header.csv");
  file.Write("a,b\r\n1,2\r\n\n3,4\n");
  data::CsvOptions opts;
  opts.has_header = true;
  const auto data = data::LoadCsv(file.path(), opts).value();
  EXPECT_EQ(data.num_users(), 2u);
  EXPECT_EQ(data.At(1, 1), 4.0);
}

TEST(CsvTest, CustomDelimiter) {
  TempFile file("semi.csv");
  file.Write("1;2\n3;4\n");
  data::CsvOptions opts;
  opts.delimiter = ';';
  const auto data = data::LoadCsv(file.path(), opts).value();
  EXPECT_EQ(data.At(1, 0), 3.0);
}

TEST(CsvTest, RejectsMalformedFiles) {
  TempFile ragged("ragged.csv");
  ragged.Write("1,2\n3\n");
  EXPECT_FALSE(data::LoadCsv(ragged.path()).ok());

  TempFile bad_number("bad.csv");
  bad_number.Write("1,two\n");
  EXPECT_FALSE(data::LoadCsv(bad_number.path()).ok());

  TempFile empty_cell("empty.csv");
  empty_cell.Write("1,,3\n");
  EXPECT_FALSE(data::LoadCsv(empty_cell.path()).ok());

  TempFile empty("nothing.csv");
  empty.Write("");
  EXPECT_FALSE(data::LoadCsv(empty.path()).ok());

  EXPECT_EQ(data::LoadCsv("/nonexistent/x.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(CsvTest, EnforcesRowCap) {
  TempFile file("cap.csv");
  file.Write("1\n2\n3\n");
  data::CsvOptions opts;
  opts.max_rows = 2;
  EXPECT_FALSE(data::LoadCsv(file.path(), opts).ok());
  opts.max_rows = 3;
  EXPECT_TRUE(data::LoadCsv(file.path(), opts).ok());
}

TEST(CsvTest, SaveLoadRoundTripsExactly) {
  Rng rng(1);
  const auto original =
      data::Generate(data::UniformSpec{.num_users = 20, .num_dims = 5},
                     &rng).value();
  TempFile file("roundtrip.csv");
  ASSERT_TRUE(data::SaveCsv(original, file.path()).ok());
  const auto loaded = data::LoadCsv(file.path()).value();
  ASSERT_EQ(loaded.num_users(), original.num_users());
  ASSERT_EQ(loaded.num_dims(), original.num_dims());
  for (std::size_t i = 0; i < original.num_users(); ++i) {
    for (std::size_t j = 0; j < original.num_dims(); ++j) {
      ASSERT_EQ(loaded.At(i, j), original.At(i, j)) << i << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Support recovery.

TEST(SupportRecoveryTest, PerfectRecovery) {
  const std::vector<double> truth = {0.9, 0.0, -0.8, 0.0};
  const auto r =
      protocol::EvaluateSupportRecovery(truth, truth, 0.1).value();
  EXPECT_EQ(r.precision, 1.0);
  EXPECT_EQ(r.recall, 1.0);
  EXPECT_EQ(r.f1, 1.0);
  EXPECT_EQ(r.true_active, 2u);
  EXPECT_EQ(r.estimated_active, 2u);
}

TEST(SupportRecoveryTest, PartialRecovery) {
  const std::vector<double> truth = {0.9, 0.0, -0.8, 0.0};
  const std::vector<double> estimate = {0.5, 0.4, 0.0, 0.0};
  // Estimate active: {0, 1}; truth active: {0, 2}; hit: {0}.
  const auto r =
      protocol::EvaluateSupportRecovery(estimate, truth, 0.1).value();
  EXPECT_DOUBLE_EQ(r.precision, 0.5);
  EXPECT_DOUBLE_EQ(r.recall, 0.5);
  EXPECT_DOUBLE_EQ(r.f1, 0.5);
}

TEST(SupportRecoveryTest, DegenerateCases) {
  const std::vector<double> zeros = {0.0, 0.0};
  const std::vector<double> ones = {1.0, 1.0};
  const auto both_empty =
      protocol::EvaluateSupportRecovery(zeros, zeros, 0.5).value();
  EXPECT_EQ(both_empty.precision, 1.0);
  EXPECT_EQ(both_empty.recall, 1.0);
  const auto all_miss =
      protocol::EvaluateSupportRecovery(zeros, ones, 0.5).value();
  EXPECT_EQ(all_miss.recall, 0.0);
  EXPECT_EQ(all_miss.precision, 0.0);
  EXPECT_EQ(all_miss.f1, 0.0);
  EXPECT_FALSE(protocol::EvaluateSupportRecovery(zeros, ones, -1.0).ok());
  EXPECT_FALSE(protocol::EvaluateSupportRecovery(zeros, {1.0}, 0.5).ok());
}

// ---------------------------------------------------------------------------
// Framework conveniences.

TEST(PredictedMseTest, MatchesManualSum) {
  const std::vector<framework::GaussianDeviation> devs = {{0.1, 2.0},
                                                          {-0.3, 1.0}};
  // (0.01 + 4 + 0.09 + 1) / 2 = 2.55.
  EXPECT_NEAR(framework::PredictedMse(devs).value(), 2.55, 1e-12);
  EXPECT_FALSE(framework::PredictedMse({}).ok());
}

TEST(CoverageIntervalTest, MatchesNormalQuantiles) {
  const framework::GaussianDeviation g{0.5, 2.0};
  const auto ci = g.CoverageInterval(0.95).value();
  EXPECT_NEAR(ci.lo, 0.5 - 1.959963984540054 * 2.0, 1e-6);
  EXPECT_NEAR(ci.hi, 0.5 + 1.959963984540054 * 2.0, 1e-6);
  // The interval indeed carries the requested mass.
  EXPECT_NEAR(g.Cdf(ci.hi) - g.Cdf(ci.lo), 0.95, 1e-9);
  EXPECT_FALSE(g.CoverageInterval(0.0).ok());
  EXPECT_FALSE(g.CoverageInterval(1.0).ok());
}

TEST(ImprovementProbabilityTest, TracksNoiseScale) {
  // Tiny noise: Lemma thresholds essentially never exceeded.
  const std::vector<framework::GaussianDeviation> quiet(
      20, framework::GaussianDeviation{0.0, 0.05});
  EXPECT_LT(hdr4me::ImprovementProbabilityL1(quiet).value(), 1e-9);
  EXPECT_LT(hdr4me::ImprovementProbabilityL2(quiet).value(), 1e-9);
  // Huge noise: bound approaches 1, and the L1 threshold (1) is easier to
  // exceed than the L2 threshold (2).
  const std::vector<framework::GaussianDeviation> loud(
      20, framework::GaussianDeviation{0.0, 1.5});
  const double p1 = hdr4me::ImprovementProbabilityL1(loud).value();
  const double p2 = hdr4me::ImprovementProbabilityL2(loud).value();
  EXPECT_GT(p1, 0.99);
  EXPECT_GT(p1, p2);
  EXPECT_FALSE(hdr4me::ImprovementProbabilityL1({}).ok());
}

TEST(PredictedMseTest, AgreesWithPipelineOnLaplace) {
  // Cross-check the prediction against a real run (statistical).
  Rng rng(2);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 30000, .num_dims = 64},
                     &rng).value();
  const auto mech = mech::MakeMechanism("laplace").value();
  protocol::PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 3;
  const auto run = protocol::RunMeanEstimation(dataset, mech, opts).value();
  const auto model =
      framework::ModelDeviation(*mech, run.per_dim_epsilon,
                                framework::ValueDistribution::Point(0.0),
                                static_cast<double>(dataset.num_users()))
          .value();
  const std::vector<framework::GaussianDeviation> devs(64, model.deviation);
  const double predicted = framework::PredictedMse(devs).value();
  EXPECT_GT(run.mse, 0.5 * predicted);
  EXPECT_LT(run.mse, 1.8 * predicted);
}

}  // namespace
}  // namespace hdldp
