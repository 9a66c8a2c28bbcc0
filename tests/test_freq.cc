// Tests for the frequency-estimation extension (Section V-C): histogram
// encoding, the eps/(2m) composition, naive aggregation, HDR4ME
// re-calibration over the expanded space, and the chunk-parallel ground
// truth across thread counts, faults and untrustworthy re-pulls.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "counting_source.h"
#include "data/fault_injection.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "mech/registry.h"

namespace hdldp {
namespace freq {
namespace {

CategoricalSchema TestSchema() {
  return CategoricalSchema::Create({3, 4, 2}).value();
}

TEST(SchemaTest, OffsetsAndTotals) {
  const auto schema = TestSchema();
  EXPECT_EQ(schema.num_dims(), 3u);
  EXPECT_EQ(schema.total_entries(), 9u);
  EXPECT_EQ(schema.EntryOffset(0), 0u);
  EXPECT_EQ(schema.EntryOffset(1), 3u);
  EXPECT_EQ(schema.EntryOffset(2), 7u);
  EXPECT_EQ(schema.Cardinality(1), 4u);
}

TEST(SchemaTest, Validates) {
  EXPECT_FALSE(CategoricalSchema::Create({}).ok());
  EXPECT_FALSE(CategoricalSchema::Create({3, 1}).ok());
  EXPECT_TRUE(CategoricalSchema::Create({2, 2}).ok());
}

TEST(CategoricalDatasetTest, SetGetAndFrequencies) {
  auto ds = CategoricalDataset::Create(4, TestSchema()).value();
  ASSERT_TRUE(ds.Set(0, 0, 0).ok());
  ASSERT_TRUE(ds.Set(1, 0, 0).ok());
  ASSERT_TRUE(ds.Set(2, 0, 1).ok());
  ASSERT_TRUE(ds.Set(3, 0, 2).ok());
  const auto freqs = ds.TrueFrequencies();
  EXPECT_DOUBLE_EQ(freqs[0][0], 0.5);
  EXPECT_DOUBLE_EQ(freqs[0][1], 0.25);
  EXPECT_DOUBLE_EQ(freqs[0][2], 0.25);
  // Untouched dimensions default to category 0.
  EXPECT_DOUBLE_EQ(freqs[2][0], 1.0);
  EXPECT_FALSE(ds.Set(0, 0, 9).ok());
  EXPECT_FALSE(ds.Set(9, 0, 0).ok());
}

TEST(GenerateCategoricalTest, UniformWhenZipfZero) {
  Rng rng(1);
  const auto ds =
      GenerateCategorical(40000, CategoricalSchema::Create({5}).value(), 0.0,
                          &rng)
          .value();
  const auto freqs = ds.TrueFrequencies();
  for (const double f : freqs[0]) EXPECT_NEAR(f, 0.2, 0.01);
}

TEST(GenerateCategoricalTest, SkewDecreasesWithIndex) {
  Rng rng(2);
  const auto ds =
      GenerateCategorical(40000, CategoricalSchema::Create({6}).value(), 1.5,
                          &rng)
          .value();
  const auto freqs = ds.TrueFrequencies();
  for (std::size_t k = 1; k < freqs[0].size(); ++k) {
    EXPECT_LT(freqs[0][k], freqs[0][k - 1]) << k;
  }
}

TEST(GenerateCategoricalTest, Validates) {
  Rng rng(3);
  EXPECT_FALSE(
      GenerateCategorical(10, TestSchema(), -1.0, &rng).ok());
  EXPECT_FALSE(
      CategoricalDataset::Create(0, TestSchema()).ok());
}

TEST(FrequencyPipelineTest, BudgetSplitIsEpsOverTwoM) {
  Rng rng(4);
  const auto ds = GenerateCategorical(500, TestSchema(), 0.0, &rng).value();
  FrequencyOptions opts;
  opts.total_epsilon = 3.0;
  opts.report_dims = 2;
  const auto result =
      RunFrequencyEstimation(ds, mech::MakeMechanism("piecewise").value(),
                             opts)
          .value();
  EXPECT_DOUBLE_EQ(result.per_entry_epsilon, 3.0 / 4.0);
}

TEST(FrequencyPipelineTest, GenerousBudgetRecoversFrequencies) {
  Rng rng(5);
  const auto ds =
      GenerateCategorical(40000, CategoricalSchema::Create({4}).value(), 1.0,
                          &rng)
          .value();
  FrequencyOptions opts;
  opts.total_epsilon = 8.0;
  opts.seed = 6;
  for (const auto name : {"laplace", "piecewise", "square_wave"}) {
    const auto result =
        RunFrequencyEstimation(ds, mech::MakeMechanism(name).value(), opts)
            .value();
    // Square wave aggregates raw (biased) reports — the paper's protocol —
    // so its frequencies carry an O(0.1) bias at this budget; the unbiased
    // mechanisms must land much closer.
    const double tolerance =
        std::string_view(name) == "square_wave" ? 0.2 : 0.05;
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(result.raw[0][k], result.true_frequencies[0][k], tolerance)
          << name << " k=" << k;
    }
  }
}

TEST(FrequencyPipelineTest, NormalizedEstimatesSumToOne) {
  Rng rng(7);
  const auto ds = GenerateCategorical(2000, TestSchema(), 0.8, &rng).value();
  FrequencyOptions opts;
  opts.total_epsilon = 0.5;
  opts.seed = 8;
  const auto result =
      RunFrequencyEstimation(ds, mech::MakeMechanism("laplace").value(), opts)
          .value();
  for (const auto& dim : result.raw) {
    const double total = std::accumulate(dim.begin(), dim.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (const double f : dim) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
  }
  for (const auto& dim : result.recalibrated) {
    const double total = std::accumulate(dim.begin(), dim.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(FrequencyPipelineTest, RawEstimatesExposedWithoutNormalization) {
  Rng rng(9);
  const auto ds = GenerateCategorical(2000, TestSchema(), 0.0, &rng).value();
  FrequencyOptions opts;
  opts.total_epsilon = 0.2;
  opts.seed = 10;
  opts.clip_and_normalize = false;
  const auto result =
      RunFrequencyEstimation(ds, mech::MakeMechanism("laplace").value(), opts)
          .value();
  // With a starved budget the un-normalized naive estimates stray outside
  // [0, 1] — that is the point of exposing them.
  bool out_of_range = false;
  for (const auto& dim : result.raw) {
    for (const double f : dim) {
      if (f < 0.0 || f > 1.0) out_of_range = true;
    }
  }
  EXPECT_TRUE(out_of_range);
}

TEST(FrequencyPipelineTest, RecalibrationHelpsInHighDimensionalRegime) {
  // Many categorical dims x few users x small budget: the expanded space
  // is exactly the paper's high-dimensional regime, so HDR4ME (without
  // normalization, to isolate the re-calibration) must reduce MSE.
  Rng rng(11);
  std::vector<std::size_t> cards(30, 8);  // 240 expanded entries.
  const auto ds =
      GenerateCategorical(3000, CategoricalSchema::Create(cards).value(), 1.2,
                          &rng)
          .value();
  FrequencyOptions opts;
  opts.total_epsilon = 0.5;
  opts.seed = 12;
  opts.clip_and_normalize = false;
  opts.hdr4me.regularizer = hdr4me::Regularizer::kL1;
  const auto result =
      RunFrequencyEstimation(ds, mech::MakeMechanism("piecewise").value(),
                             opts)
          .value();
  EXPECT_LT(result.mse_recalibrated, result.mse_raw);
}

TEST(FrequencyPipelineTest, DeterministicUnderSeed) {
  Rng rng(13);
  const auto ds = GenerateCategorical(300, TestSchema(), 0.5, &rng).value();
  FrequencyOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 14;
  const auto mech = mech::MakeMechanism("square_wave").value();
  const auto a = RunFrequencyEstimation(ds, mech, opts).value();
  const auto b = RunFrequencyEstimation(ds, mech, opts).value();
  EXPECT_EQ(a.raw, b.raw);
  EXPECT_EQ(a.recalibrated, b.recalibrated);
}

TEST(FrequencyPipelineTest, Validates) {
  Rng rng(15);
  const auto ds = GenerateCategorical(10, TestSchema(), 0.0, &rng).value();
  FrequencyOptions opts;
  EXPECT_FALSE(RunFrequencyEstimation(ds, nullptr, opts).ok());
  opts.report_dims = 99;
  EXPECT_FALSE(
      RunFrequencyEstimation(ds, mech::MakeMechanism("laplace").value(), opts)
          .ok());
  opts.report_dims = 0;
  opts.total_epsilon = 0.0;
  EXPECT_FALSE(
      RunFrequencyEstimation(ds, mech::MakeMechanism("laplace").value(), opts)
          .ok());
}

// The ground truth of every frequency path merges the category counts
// each estimate body took of the chunk it pulled, over the chunks the
// estimate covered. These runs span 21 chunks (20 full plus a tail), so
// the reduction really splits across workers.
constexpr std::size_t kTruthUsers = 20 * 4096 + 777;

CategoricalDataset TruthDataset() {
  Rng rng(31);
  return GenerateCategorical(kTruthUsers,
                             CategoricalSchema::Create({3, 5, 2, 7}).value(),
                             0.9, &rng)
      .value();
}

// One frequency path under test: the v3 numeric path (piecewise, m = 2)
// or the OUE oracle path.
struct TruthPath {
  const char* name;
  bool oue;
};
constexpr TruthPath kTruthPaths[] = {{"v3-numeric", false}, {"oue", true}};

Result<FrequencyEstimationResult> RunTruthPath(
    const data::ChunkSource& source, const CategoricalSchema& schema,
    const TruthPath& path, FrequencyOptions opts) {
  opts.total_epsilon = 2.0;
  opts.report_dims = 2;
  opts.seed = 12;
  if (path.oue) {
    opts.encoding = protocol::ReportEncoding::kOue;
    return RunFrequencyEstimation(source, schema, nullptr, opts);
  }
  opts.seed_scheme = SeedScheme::kV3Batched;
  return RunFrequencyEstimation(source, schema,
                                mech::MakeMechanism("piecewise").value(),
                                opts);
}

// Wraps a source and tampers with the second pull of selected chunks:
// the true rows with the first user's dimension-0 category replaced by
// `out_of_range`.
class SecondPullSource final : public data::ChunkSource {
 public:
  SecondPullSource(const data::ChunkSource* base,
                   std::vector<std::size_t> chunks, double out_of_range)
      : base_(base),
        chunks_(std::move(chunks)),
        out_of_range_(out_of_range),
        pulls_(base->num_chunks()) {}

  std::size_t num_users() const override { return base_->num_users(); }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(
      std::size_t chunk, data::ChunkBuffer* buffer) const override {
    const bool tampered =
        std::find(chunks_.begin(), chunks_.end(), chunk) != chunks_.end();
    if (!tampered || ++pulls_[chunk] != 2) {
      return base_->Chunk(chunk, buffer);
    }
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           base_->Chunk(chunk, buffer));
    std::vector<double> copy(rows.begin(), rows.end());
    copy[0] = out_of_range_;
    buffer->storage() = std::move(copy);
    return std::span<const double>(buffer->storage());
  }

 private:
  const data::ChunkSource* base_;
  std::vector<std::size_t> chunks_;
  double out_of_range_;
  mutable std::vector<std::atomic<int>> pulls_;
};

TEST(FreqTruthTest, MatchesResidentTruthAtEveryThreadCount) {
  const CategoricalDataset dataset = TruthDataset();
  const CategoricalChunkSource source(&dataset);
  ASSERT_GE(source.num_chunks(), 20u);
  const auto expected = dataset.TrueFrequencies();
  for (const TruthPath& path : kTruthPaths) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(path.name) + " threads=" +
                   std::to_string(threads));
      FrequencyOptions opts;
      opts.num_threads = threads;
      const CountingSource counted(&source);
      const auto run = RunTruthPath(counted, dataset.schema(), path, opts);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run.value().true_frequencies, expected);
      EXPECT_EQ(run.value().outcome.surviving_users, kTruthUsers);
      EXPECT_EQ(counted.pulls(),
                std::vector<std::uint32_t>(counted.num_chunks(), 1));
    }
  }
  // The serial v1 ingestion scores against the same chunk counts.
  FrequencyOptions v1;
  v1.seed_scheme = SeedScheme::kV1Scalar;
  v1.report_dims = 2;
  v1.num_threads = 4;
  const CountingSource counted(&source);
  const auto run = RunFrequencyEstimation(
      counted, dataset.schema(), mech::MakeMechanism("piecewise").value(), v1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().true_frequencies, expected);
  EXPECT_EQ(counted.pulls(),
            std::vector<std::uint32_t>(counted.num_chunks(), 1));
}

TEST(FreqTruthTest, PersistentFaultsCountOnlySurvivingChunks) {
  const CategoricalDataset dataset = TruthDataset();
  const CategoricalSchema& schema = dataset.schema();
  const CategoricalChunkSource base(&dataset);
  const std::vector<std::size_t> lost{0, 7, 8, base.num_chunks() - 1};
  data::FaultSchedule schedule;
  for (const std::size_t c : lost) {
    schedule.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = c});
  }
  const data::FaultInjectingChunkSource faulty(&base, schedule);

  // The test's own count over the users of the surviving chunks.
  std::vector<std::vector<std::int64_t>> counts(schema.num_dims());
  for (std::size_t j = 0; j < schema.num_dims(); ++j) {
    counts[j].assign(schema.Cardinality(j), 0);
  }
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < kTruthUsers; ++i) {
    if (std::find(lost.begin(), lost.end(), i / 4096) != lost.end()) continue;
    ++survivors;
    for (std::size_t j = 0; j < schema.num_dims(); ++j) {
      ++counts[j][dataset.At(i, j)];
    }
  }
  std::vector<std::vector<double>> expected(schema.num_dims());
  for (std::size_t j = 0; j < schema.num_dims(); ++j) {
    for (const std::int64_t count : counts[j]) {
      expected[j].push_back(static_cast<double>(count) /
                            static_cast<double>(survivors));
    }
  }

  for (const TruthPath& path : kTruthPaths) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(path.name) + " threads=" +
                   std::to_string(threads));
      FrequencyOptions opts;
      opts.num_threads = threads;
      opts.allow_missing_chunks = true;
      const auto run = RunTruthPath(faulty, schema, path, opts);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run.value().outcome.quarantined_chunks, lost);
      EXPECT_EQ(run.value().outcome.surviving_users, survivors);
      EXPECT_EQ(run.value().true_frequencies, expected);
    }
  }
}

TEST(FreqTruthTest, TransientFaultsRecoverToTheFaultFreeTruth) {
  const CategoricalDataset dataset = TruthDataset();
  const CategoricalChunkSource base(&dataset);
  const auto expected = dataset.TrueFrequencies();
  data::FaultSchedule::RandomOptions random;
  random.transient_rate = 0.6;
  random.failing_attempts = 2;
  const data::FaultSchedule schedule =
      data::FaultSchedule::Random(3, base.num_chunks(), random);
  ASSERT_FALSE(schedule.empty());
  for (const TruthPath& path : kTruthPaths) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(path.name) + " threads=" +
                   std::to_string(threads));
      FrequencyOptions opts;
      opts.num_threads = threads;
      opts.retry.max_attempts = 3;
      const data::FaultInjectingChunkSource faulty(&base, schedule);
      const auto run = RunTruthPath(faulty, dataset.schema(), path, opts);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run.value().true_frequencies, expected);
    }
  }
}

TEST(FreqTruthTest, OutOfRangeCategoryOnRepullIsInvalidArgument) {
  const CategoricalDataset dataset = TruthDataset();
  const CategoricalSchema& schema = dataset.schema();
  const CategoricalChunkSource base(&dataset);
  // A fresh run counts each chunk in the body that pulled it, so the
  // re-pull under test is a resumed run's top-up. The first run counts
  // and checkpoints chunk 5, then fails on chunk 1, whose first value a
  // bit flip has made no category index. The resumed run takes chunk 5
  // from its checkpoint and pulls it again only to count it; that second
  // pull claims category 3 in a 3-category dimension.
  const double out_of_range = static_cast<double>(schema.Cardinality(0));
  data::FaultSchedule corrupt;
  corrupt.Add({.kind = data::FaultSpec::Kind::kBitFlip,
               .chunk = 1,
               .byte_offset = 6,
               .xor_mask = 0x40});
  for (const TruthPath& path : kTruthPaths) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(path.name) + " threads=" +
                   std::to_string(threads));
      const std::string checkpoint = ::testing::TempDir() +
                                     "hdldp_freq_truth_repull_" + path.name +
                                     "_" + std::to_string(threads);
      std::remove(checkpoint.c_str());
      const SecondPullSource tampered(&base, {5}, out_of_range);
      const CountingSource counted(&tampered);
      FrequencyOptions opts;
      opts.num_threads = threads;
      opts.allow_missing_chunks = true;  // Never quarantines a bad value.
      opts.checkpoint_path = checkpoint;
      const data::FaultInjectingChunkSource crashing(&counted, corrupt);
      const auto crashed = RunTruthPath(crashing, schema, path, opts);
      ASSERT_FALSE(crashed.ok());
      EXPECT_EQ(crashed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(crashed.status().message().find("chunk 1"),
                std::string::npos)
          << crashed.status().message();

      const auto run = RunTruthPath(counted, schema, path, opts);
      ASSERT_FALSE(run.ok());
      EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(run.status().message().find("chunk 5"), std::string::npos)
          << run.status().message();
      // The resumed run re-ran only chunk 1's body and topped up the
      // checkpointed chunks in order, stopping at chunk 5.
      const std::vector<std::uint32_t> pulls = counted.pulls();
      EXPECT_EQ(pulls[0], 2u);
      EXPECT_EQ(pulls[1], 2u);
      EXPECT_EQ(pulls[5], 2u);
      EXPECT_EQ(pulls[6], 1u);
      std::remove(checkpoint.c_str());
    }
  }
}

}  // namespace
}  // namespace freq
}  // namespace hdldp
