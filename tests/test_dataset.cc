// Unit tests for the dataset container and the Section VI generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "data/chunk_source.h"
#include "data/dataset.h"
#include "data/generator_source.h"
#include "data/generators.h"

namespace hdldp {
namespace data {
namespace {

// [min, max] of column j.
std::pair<double, double> ColumnRange(const Dataset& d, std::size_t j) {
  double lo = d.At(0, j);
  double hi = lo;
  for (std::size_t i = 1; i < d.num_users(); ++i) {
    lo = std::min(lo, d.At(i, j));
    hi = std::max(hi, d.At(i, j));
  }
  return {lo, hi};
}

TEST(DatasetTest, CreateValidatesShape) {
  EXPECT_FALSE(Dataset::Create(0, 5).ok());
  EXPECT_FALSE(Dataset::Create(5, 0).ok());
  ASSERT_TRUE(Dataset::Create(3, 4).ok());
}

TEST(DatasetTest, SetGetRoundTrip) {
  auto d = Dataset::Create(2, 3).value();
  d.Set(0, 0, 1.5);
  d.Set(1, 2, -0.25);
  EXPECT_EQ(d.At(0, 0), 1.5);
  EXPECT_EQ(d.At(1, 2), -0.25);
  EXPECT_EQ(d.At(0, 1), 0.0);
  EXPECT_EQ(d.Row(1).size(), 3u);
  EXPECT_EQ(d.Row(1)[2], -0.25);
}

TEST(DatasetTest, TrueMeanPerDimension) {
  auto d = Dataset::Create(4, 2).value();
  for (std::size_t i = 0; i < 4; ++i) {
    d.Set(i, 0, static_cast<double>(i));       // 0,1,2,3 -> mean 1.5
    d.Set(i, 1, i % 2 == 0 ? -1.0 : 1.0);      // mean 0
  }
  const auto mean = d.TrueMean();
  EXPECT_DOUBLE_EQ(mean[0], 1.5);
  EXPECT_DOUBLE_EQ(mean[1], 0.0);
}

TEST(DatasetTest, ResampleDimensionsDrawsExistingColumns) {
  auto d = Dataset::Create(5, 3).value();
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      d.Set(i, j, static_cast<double>(j));  // Column j holds constant j.
    }
  }
  Rng rng(1);
  const auto wide = d.ResampleDimensions(10, &rng).value();
  EXPECT_EQ(wide.num_dims(), 10u);
  EXPECT_EQ(wide.num_users(), 5u);
  for (std::size_t j = 0; j < 10; ++j) {
    const double v = wide.At(0, j);
    EXPECT_TRUE(v == 0.0 || v == 1.0 || v == 2.0);
    // Every user sees the same source column.
    for (std::size_t i = 1; i < 5; ++i) EXPECT_EQ(wide.At(i, j), v);
  }
  EXPECT_FALSE(d.ResampleDimensions(0, &rng).ok());
}

TEST(DatasetTest, AdoptTakesRowMajorValues) {
  const auto d = Dataset::Adopt(2, 3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}).value();
  EXPECT_EQ(d.At(0, 2), 3.0);
  EXPECT_EQ(d.At(1, 0), 4.0);
  EXPECT_EQ(d.TrueMean()[1], 3.5);
  EXPECT_FALSE(Dataset::Adopt(2, 3, std::vector<double>(5)).ok());
  EXPECT_FALSE(Dataset::Adopt(0, 3, {}).ok());
}

TEST(DatasetTest, FillRowsStoresWholeRowBlocks) {
  auto d = Dataset::Create(4, 3).value();
  const std::vector<double> block = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  ASSERT_TRUE(d.FillRows(1, block).ok());
  EXPECT_EQ(d.At(0, 0), 0.0);
  EXPECT_EQ(d.At(1, 0), 1.0);
  EXPECT_EQ(d.At(1, 2), 3.0);
  EXPECT_EQ(d.At(2, 1), 5.0);
  EXPECT_EQ(d.At(3, 0), 0.0);
}

TEST(DatasetTest, FillRowsValidatesShapeAndRange) {
  auto d = Dataset::Create(4, 3).value();
  const std::vector<double> partial = {1.0, 2.0};  // Not a whole row.
  EXPECT_EQ(d.FillRows(0, partial).code(), StatusCode::kInvalidArgument);
  const std::vector<double> two_rows(6, 1.0);
  EXPECT_EQ(d.FillRows(3, two_rows).code(), StatusCode::kOutOfRange);
}

TEST(DatasetTest, FillRowsInvalidatesTrueMeanMemo) {
  auto d = Dataset::Create(2, 1).value();
  EXPECT_EQ(d.TrueMean()[0], 0.0);  // Memoizes.
  const std::vector<double> rows = {1.0, 3.0};
  ASSERT_TRUE(d.FillRows(0, rows).ok());
  EXPECT_EQ(d.TrueMean()[0], 2.0);
}

TEST(GeneratorTest, UniformRespectsRangeAndMean) {
  Rng rng(2);
  const auto d =
      Generate(UniformSpec{.num_users = 20000, .num_dims = 4}, &rng).value();
  for (std::size_t j = 0; j < 4; ++j) {
    RunningMoments m;
    for (std::size_t i = 0; i < d.num_users(); ++i) {
      ASSERT_GE(d.At(i, j), -1.0);
      ASSERT_LT(d.At(i, j), 1.0);
      m.Add(d.At(i, j));
    }
    EXPECT_NEAR(m.Mean(), 0.0, 0.02);
    EXPECT_NEAR(m.Variance(), 1.0 / 3.0, 0.02);
  }
}

TEST(GeneratorTest, GaussianSignalDimensions) {
  Rng rng(3);
  GaussianSpec spec;
  spec.num_users = 20000;
  spec.num_dims = 20;
  const auto d = Generate(spec, &rng).value();
  // First ceil(0.1 * 20) = 2 dimensions carry mean 0.9; the rest mean 0.
  for (std::size_t j = 0; j < d.num_dims(); ++j) {
    RunningMoments m;
    for (std::size_t i = 0; i < d.num_users(); ++i) m.Add(d.At(i, j));
    if (j < 2) {
      EXPECT_NEAR(m.Mean(), 0.9, 0.01) << j;
    } else {
      EXPECT_NEAR(m.Mean(), 0.0, 0.01) << j;
    }
    EXPECT_NEAR(m.StdDev(), 1.0 / 16.0, 0.005) << j;
  }
}

TEST(GeneratorTest, GaussianValidatesSpec) {
  Rng rng(4);
  GaussianSpec bad;
  bad.num_users = 10;
  bad.num_dims = 2;
  bad.stddev = 0.0;
  EXPECT_FALSE(Generate(bad, &rng).ok());
  bad.stddev = 0.1;
  bad.high_fraction = 1.5;
  EXPECT_FALSE(Generate(bad, &rng).ok());
}

TEST(GeneratorTest, PoissonIsNormalized) {
  Rng rng(5);
  PoissonSpec spec;
  spec.num_users = 5000;
  spec.num_dims = 6;
  const auto d = Generate(spec, &rng).value();
  for (std::size_t j = 0; j < d.num_dims(); ++j) {
    const auto [lo, hi] = ColumnRange(d, j);
    EXPECT_DOUBLE_EQ(lo, -1.0) << j;
    EXPECT_DOUBLE_EQ(hi, 1.0) << j;
  }
}

TEST(GeneratorTest, PoissonValidatesSpec) {
  Rng rng(6);
  PoissonSpec bad;
  bad.num_users = 10;
  bad.num_dims = 2;
  bad.min_expectation = 0.0;
  EXPECT_FALSE(Generate(bad, &rng).ok());
  bad.min_expectation = 50.0;
  bad.max_expectation = 10.0;
  EXPECT_FALSE(Generate(bad, &rng).ok());
}

TEST(GeneratorTest, CorrelatedSurrogateHasHighPairwiseCorrelation) {
  Rng rng(7);
  CorrelatedSpec spec;
  spec.num_users = 4000;
  spec.num_dims = 30;
  const auto d = Generate(spec, &rng).value();
  Rng probe(8);
  const double corr = AveragePairwiseCorrelation(d, 60, &probe);
  // The COV-19 stand-in must be strongly correlated across dimensions.
  EXPECT_GT(corr, 0.5);
}

TEST(GeneratorTest, UncorrelatedBaselineIsLow) {
  Rng rng(9);
  const auto d =
      Generate(UniformSpec{.num_users = 4000, .num_dims = 30}, &rng).value();
  Rng probe(10);
  EXPECT_LT(AveragePairwiseCorrelation(d, 60, &probe), 0.1);
}

TEST(GeneratorTest, CorrelatedValidatesSpec) {
  Rng rng(11);
  CorrelatedSpec bad;
  bad.num_users = 10;
  bad.num_dims = 4;
  bad.num_factors = 0;
  EXPECT_FALSE(Generate(bad, &rng).ok());
  bad.num_factors = 2;
  bad.factor_weight = 1.0;
  EXPECT_FALSE(Generate(bad, &rng).ok());
}

TEST(GeneratorTest, DiscreteMatchesRequestedLaw) {
  Rng rng(12);
  DiscreteSpec spec;
  spec.num_users = 50000;
  spec.num_dims = 2;
  spec.values = {0.1, 0.5, 1.0};
  spec.probabilities = {0.5, 0.3, 0.2};
  const auto d = Generate(spec, &rng).value();
  std::size_t count_01 = 0;
  for (std::size_t i = 0; i < d.num_users(); ++i) {
    const double v = d.At(i, 0);
    ASSERT_TRUE(v == 0.1 || v == 0.5 || v == 1.0);
    if (v == 0.1) ++count_01;
  }
  EXPECT_NEAR(static_cast<double>(count_01) / 50000.0, 0.5, 0.01);
}

TEST(GeneratorTest, DiscreteValidatesProbabilities) {
  Rng rng(13);
  DiscreteSpec bad;
  bad.num_users = 10;
  bad.num_dims = 1;
  bad.values = {0.0, 1.0};
  bad.probabilities = {0.7, 0.7};
  EXPECT_FALSE(Generate(bad, &rng).ok());
  bad.probabilities = {0.5};
  EXPECT_FALSE(Generate(bad, &rng).ok());
  bad.probabilities = {-0.5, 1.5};
  EXPECT_FALSE(Generate(bad, &rng).ok());
}

TEST(GeneratorTest, GeneratorsAreDeterministic) {
  Rng a(99), b(99);
  const auto da =
      Generate(UniformSpec{.num_users = 50, .num_dims = 3}, &a).value();
  const auto db =
      Generate(UniformSpec{.num_users = 50, .num_dims = 3}, &b).value();
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      ASSERT_EQ(da.At(i, j), db.At(i, j));
    }
  }
}

// One spec per distribution over a ragged multi-chunk shape.
std::vector<GeneratorSpec> GoldenSpecs() {
  const std::size_t users = 2 * kUsersPerChunk + 333;
  GaussianSpec gaussian;
  gaussian.num_users = users;
  gaussian.num_dims = 5;
  PoissonSpec poisson;
  poisson.num_users = users;
  poisson.num_dims = 3;
  CorrelatedSpec correlated;
  correlated.num_users = users;
  correlated.num_dims = 4;
  DiscreteSpec discrete;
  discrete.num_users = users;
  discrete.num_dims = 2;
  discrete.values = {-0.5, 0.0, 1.0};
  discrete.probabilities = {0.2, 0.5, 0.3};
  return {UniformSpec{.num_users = users, .num_dims = 3}, gaussian, poisson,
          correlated, discrete};
}

// FNV-1a over the values' bit patterns, continuing from `h`.
std::uint64_t Digest(std::span<const double> values,
                     std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t Digest(const Dataset& d) {
  return Digest(d.Rows(0, d.num_users()));
}

std::uint64_t Digest(const ChunkSource& source) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  ChunkBuffer buffer;
  for (std::size_t c = 0; c < source.num_chunks(); ++c) {
    h = Digest(source.Chunk(c, &buffer).value(), h);
  }
  return h;
}

// Both stream contracts are frozen: these digests were recorded from the
// per-distribution generators before they were folded into one body.
TEST(GeneratorTest, GoldenDigestsPerSpecAndContract) {
  struct Golden {
    std::uint64_t classic;
    std::uint64_t chunk_keyed;
  };
  const Golden goldens[] = {
      {0x167d558e8ee5c2b7ULL, 0x5c80fc9aece41ef4ULL},  // uniform
      {0x930621ab75c48a95ULL, 0x20af5c329da0c182ULL},  // gaussian
      {0x891450911f47e51fULL, 0xd092a7bae012fda3ULL},  // poisson
      {0xd6de28a44c6136a6ULL, 0xa6746cef96a81b5bULL},  // correlated
      {0x4372175be63c19b5ULL, 0x423d8ccc8bb875b5ULL},  // discrete
  };
  const std::vector<GeneratorSpec> specs = GoldenSpecs();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    Rng rng(2024);
    EXPECT_EQ(Digest(Generate(specs[k], &rng).value()), goldens[k].classic)
        << k;
    EXPECT_EQ(Digest(GeneratorChunkSource::Create(specs[k], 2024).value()),
              goldens[k].chunk_keyed)
        << k;
    EXPECT_EQ(Digest(GenerateChunkKeyed(specs[k], 2024).value()),
              goldens[k].chunk_keyed)
        << k;
  }
}

TEST(GeneratorTest, ValuesLandInUnitRangeOnBothContracts) {
  // Gaussian (clamped), Poisson and Correlated (min-max normalized).
  const std::vector<GeneratorSpec> specs = GoldenSpecs();
  for (std::size_t k = 1; k <= 3; ++k) {
    Rng rng(31);
    for (const Dataset& d : {Generate(specs[k], &rng).value(),
                             GenerateChunkKeyed(specs[k], 31).value()}) {
      for (std::size_t j = 0; j < d.num_dims(); ++j) {
        const auto [lo, hi] = ColumnRange(d, j);
        EXPECT_GE(lo, -1.0) << k << ":" << j;
        EXPECT_LE(hi, 1.0) << k << ":" << j;
      }
    }
  }
}

TEST(GeneratorTest, ConstantColumnNormalizesToZeroOnBothContracts) {
  // One user: every column is constant, so min-max maps it to 0.
  PoissonSpec spec;
  spec.num_users = 1;
  spec.num_dims = 3;
  Rng rng(5);
  const Dataset classic = Generate(spec, &rng).value();
  const auto source = GeneratorChunkSource::Create(spec, 5).value();
  ChunkBuffer buffer;
  const auto streamed = source.Chunk(0, &buffer).value();
  ASSERT_EQ(streamed.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(classic.At(0, j), 0.0) << j;
    EXPECT_EQ(streamed[j], 0.0) << j;
  }
}

}  // namespace
}  // namespace data
}  // namespace hdldp
