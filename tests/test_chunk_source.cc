// ChunkSource tests: adapter semantics (resident zero-copy, slices,
// transforms, MaterializeRows), the frozen chunk-keyed generator
// contract (golden draw bits + eager/streaming twins), and the
// determinism tentpole — mean, frequency and variance estimates are
// bit-identical whether the same values arrive resident, from disk
// shards, or from a streaming generator, at v2 and v3 schemes and any
// thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/dataset.h"
#include "data/generator_source.h"
#include "data/generators.h"
#include "data/shard.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "hdr4me/variance.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace data {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Fresh (removed-if-present) per-test shard directory path.
std::string TempShardDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hdldp_source_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectSourceMatchesDataset(const ChunkSource& source,
                                const Dataset& dataset) {
  ASSERT_EQ(source.num_users(), dataset.num_users());
  ASSERT_EQ(source.num_dims(), dataset.num_dims());
  ChunkBuffer buffer;
  // Reverse order: chunks are random access, no hidden sequential state.
  for (std::size_t c = source.num_chunks(); c-- > 0;) {
    const auto rows = source.Chunk(c, &buffer);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    const auto expected =
        dataset.Rows(source.ChunkBegin(c), source.ChunkUsers(c));
    ASSERT_EQ(rows.value().size(), expected.size()) << c;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(rows.value()[k], expected[k]) << c << ":" << k;
    }
  }
}

TEST(ChunkSourceTest, ResidentChunkSourceIsZeroCopy) {
  Rng rng(31);
  const Dataset dataset =
      Generate(UniformSpec{.num_users = 5000, .num_dims = 3}, &rng).value();
  const ResidentChunkSource source(&dataset);
  ChunkBuffer buffer;
  const auto rows = source.Chunk(1, &buffer);
  ASSERT_TRUE(rows.ok());
  // The span aliases the dataset's storage — no copy happened.
  EXPECT_EQ(rows.value().data(),
            dataset.Rows(kUsersPerChunk, source.ChunkUsers(1)).data());
  ChunkBuffer other;
  EXPECT_EQ(source.Chunk(2, &other).status().code(), StatusCode::kOutOfRange);
}

TEST(ChunkSourceTest, DefaultStreamingTrueMeanMatchesDatasetBitwise) {
  Rng rng(32);
  const Dataset dataset =
      Generate(
          UniformSpec{.num_users = 2 * kUsersPerChunk + 123, .num_dims = 4},
          &rng).value();
  const ResidentChunkSource resident(&dataset);
  // A full-range slice has no TrueMean override, so this exercises the
  // base class's streaming pass.
  const SlicedChunkSource full(&resident, 0, dataset.num_users());
  const auto streamed = full.TrueMean();
  ASSERT_TRUE(streamed.ok());
  const auto expected = dataset.TrueMean();
  for (std::size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(Bits(streamed.value()[j]), Bits(expected[j])) << j;
  }
}

TEST(ChunkSourceTest, SlicedChunkSourceAlignedAndUnaligned) {
  Rng rng(33);
  const Dataset dataset =
      Generate(
          UniformSpec{.num_users = 3 * kUsersPerChunk + 500, .num_dims = 2},
          &rng).value();
  const ResidentChunkSource resident(&dataset);
  for (const std::size_t first : {kUsersPerChunk, std::size_t{1000}}) {
    const std::size_t count = dataset.num_users() - first;
    const SlicedChunkSource slice(&resident, first, count);
    ASSERT_EQ(slice.num_users(), count);
    ChunkBuffer buffer;
    for (std::size_t c = 0; c < slice.num_chunks(); ++c) {
      const auto rows = slice.Chunk(c, &buffer);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      const auto expected =
          dataset.Rows(first + slice.ChunkBegin(c), slice.ChunkUsers(c));
      ASSERT_EQ(rows.value().size(), expected.size());
      for (std::size_t k = 0; k < expected.size(); ++k) {
        ASSERT_EQ(rows.value()[k], expected[k]) << first << ":" << c;
      }
    }
  }
}

TEST(ChunkSourceTest, TransformedChunkSourceAppliesPerValue) {
  Rng rng(34);
  const Dataset dataset =
      Generate(UniformSpec{.num_users = kUsersPerChunk + 77, .num_dims = 3},
               &rng).value();
  const ResidentChunkSource resident(&dataset);
  const TransformedChunkSource doubled(&resident,
                                       [](double v) { return 2.0 * v; });
  ChunkBuffer buffer;
  for (std::size_t c = 0; c < doubled.num_chunks(); ++c) {
    const auto rows = doubled.Chunk(c, &buffer);
    ASSERT_TRUE(rows.ok());
    const auto base = dataset.Rows(doubled.ChunkBegin(c),
                                   doubled.ChunkUsers(c));
    for (std::size_t k = 0; k < base.size(); ++k) {
      ASSERT_EQ(rows.value()[k], 2.0 * base[k]);
    }
  }
}

TEST(ChunkSourceTest, MaterializeRowsCrossesChunkBoundaries) {
  Rng rng(35);
  const Dataset dataset =
      Generate(UniformSpec{.num_users = 2 * kUsersPerChunk, .num_dims = 2},
               &rng).value();
  const ResidentChunkSource resident(&dataset);
  const std::size_t first = kUsersPerChunk - 6;
  const std::size_t count = 12;  // Straddles the chunk 0 / chunk 1 seam.
  const auto rows = MaterializeRows(resident, first, count);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), count * 2);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      ASSERT_EQ(rows.value()[i * 2 + j], dataset.At(first + i, j));
    }
  }
  EXPECT_FALSE(MaterializeRows(resident, first, 2 * kUsersPerChunk).ok());
}

// The chunk-keyed generator contract is frozen: these bits may never
// change, or every recorded chunk-keyed dataset changes under its seed.
TEST(GeneratorSourceTest, ChunkKeyedGoldenDrawBits) {
  {
    UniformSpec spec;
    spec.num_users = 9000;
    spec.num_dims = 3;
    const auto source = GeneratorChunkSource::Create(spec, 42);
    ASSERT_TRUE(source.ok());
    ChunkBuffer buffer;
    const std::uint64_t kChunk0[] = {0x3fdfbef63090b224ULL,
                                     0x3fd90850f14b7638ULL,
                                     0x3fc75214b4432d38ULL};
    const std::uint64_t kChunk2[] = {0x3fd1839e191535c8ULL,
                                     0xbfcd40af919fc8c0ULL,
                                     0x3fd4c97a9a58e1dcULL};
    const auto c0 = source.value().Chunk(0, &buffer);
    ASSERT_TRUE(c0.ok());
    for (int k = 0; k < 3; ++k) EXPECT_EQ(Bits(c0.value()[k]), kChunk0[k]);
    const auto c2 = source.value().Chunk(2, &buffer);
    ASSERT_TRUE(c2.ok());
    for (int k = 0; k < 3; ++k) EXPECT_EQ(Bits(c2.value()[k]), kChunk2[k]);
  }
  {
    GaussianSpec spec;
    spec.num_users = 9000;
    spec.num_dims = 4;
    const auto source = GeneratorChunkSource::Create(spec, 7);
    ASSERT_TRUE(source.ok());
    ChunkBuffer buffer;
    const std::uint64_t kChunk1[] = {
        0x3ff0000000000000ULL, 0x3fa1565c3a25a62fULL, 0x3f82dd4d5fe1c3eaULL,
        0x3fb3c5d23d58e65dULL};
    const auto c1 = source.value().Chunk(1, &buffer);
    ASSERT_TRUE(c1.ok());
    for (int k = 0; k < 4; ++k) EXPECT_EQ(Bits(c1.value()[k]), kChunk1[k]);
  }
  {
    PoissonSpec spec;
    spec.num_users = 9000;
    spec.num_dims = 2;
    const auto source = GeneratorChunkSource::Create(spec, 11);
    ASSERT_TRUE(source.ok());
    ChunkBuffer buffer;
    const std::uint64_t kChunk2[] = {
        0xbfd294a5294a5294ULL, 0xbfc1745d1745d174ULL, 0x3fd8c6318c6318c8ULL,
        0xbfcd1745d1745d18ULL};
    const auto c2 = source.value().Chunk(2, &buffer);
    ASSERT_TRUE(c2.ok());
    for (int k = 0; k < 4; ++k) EXPECT_EQ(Bits(c2.value()[k]), kChunk2[k]);
  }
}

TEST(GeneratorSourceTest, EagerTwinMatchesStreamingForEverySpec) {
  const std::size_t users = 2 * kUsersPerChunk + 333;
  std::vector<GeneratorSpec> specs;
  specs.push_back(UniformSpec{.num_users = users, .num_dims = 3});
  {
    GaussianSpec s;
    s.num_users = users;
    s.num_dims = 5;
    specs.push_back(s);
  }
  {
    PoissonSpec s;
    s.num_users = users;
    s.num_dims = 3;
    specs.push_back(s);
  }
  {
    CorrelatedSpec s;
    s.num_users = users;
    s.num_dims = 4;
    specs.push_back(s);
  }
  {
    DiscreteSpec s;
    s.num_users = users;
    s.num_dims = 2;
    s.values = {-0.5, 0.0, 1.0};
    s.probabilities = {0.2, 0.5, 0.3};
    specs.push_back(s);
  }
  std::uint64_t seed = 101;
  for (const GeneratorSpec& spec : specs) {
    const auto eager = GenerateChunkKeyed(spec, seed);
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    const auto streaming = GeneratorChunkSource::Create(spec, seed);
    ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
    ExpectSourceMatchesDataset(streaming.value(), eager.value());
    ++seed;
  }
}

// The tentpole contract: identical estimates — to the bit — no matter
// how the chunks were delivered.
TEST(SourceBitIdentityTest, MeanAcrossResidentShardAndGenerator) {
  GaussianSpec spec;
  spec.num_users = 2 * kUsersPerChunk + 500;
  spec.num_dims = 4;
  const std::uint64_t data_seed = 77;

  const auto eager = GenerateChunkKeyed(spec, data_seed);
  ASSERT_TRUE(eager.ok());
  const ResidentChunkSource resident(&eager.value());

  const auto generator = GeneratorChunkSource::Create(spec, data_seed);
  ASSERT_TRUE(generator.ok());

  const std::string dir = TempShardDir("mean_identity");
  ShardWriterOptions shard_opts;
  shard_opts.chunks_per_file = 1;  // Multi-file, to cross file seams too.
  ASSERT_TRUE(WriteShards(generator.value(), dir, shard_opts).ok());
  const auto shard = ShardFileSource::Open(dir);
  ASSERT_TRUE(shard.ok());

  for (const SeedScheme scheme :
       {SeedScheme::kV2Lanes, SeedScheme::kV3Batched}) {
    protocol::PipelineOptions opts;
    opts.total_epsilon = 1.0;
    opts.report_dims = 2;  // Sampled m < d exercises the batched driver.
    opts.seed = 5;
    opts.seed_scheme = scheme;
    opts.num_threads = 1;
    const auto mechanism = mech::MakeMechanism("piecewise");
    ASSERT_TRUE(mechanism.ok());

    const auto on_resident =
        protocol::RunMeanEstimation(resident, mechanism.value(), opts);
    ASSERT_TRUE(on_resident.ok());
    opts.num_threads = 4;  // Thread count must never change the bits.
    const auto on_shard =
        protocol::RunMeanEstimation(shard.value(), mechanism.value(), opts);
    const auto on_generator = protocol::RunMeanEstimation(
        generator.value(), mechanism.value(), opts);
    ASSERT_TRUE(on_shard.ok());
    ASSERT_TRUE(on_generator.ok());

    for (std::size_t j = 0; j < spec.num_dims; ++j) {
      EXPECT_EQ(Bits(on_resident.value().estimated_mean[j]),
                Bits(on_shard.value().estimated_mean[j]))
          << j;
      EXPECT_EQ(Bits(on_resident.value().estimated_mean[j]),
                Bits(on_generator.value().estimated_mean[j]))
          << j;
      EXPECT_EQ(Bits(on_resident.value().true_mean[j]),
                Bits(on_shard.value().true_mean[j]))
          << j;
    }
    EXPECT_EQ(Bits(on_resident.value().mse), Bits(on_shard.value().mse));
    EXPECT_EQ(Bits(on_resident.value().mse), Bits(on_generator.value().mse));
  }
}

TEST(SourceBitIdentityTest, FrequencyAcrossResidentAndShard) {
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>(4, 5));
  ASSERT_TRUE(schema.ok());
  Rng rng(91);
  const auto dataset =
      freq::GenerateCategorical(6000, schema.value(), 1.0, &rng);
  ASSERT_TRUE(dataset.ok());

  const std::string dir = TempShardDir("freq_identity");
  const freq::CategoricalChunkSource categorical(&dataset.value());
  ASSERT_TRUE(WriteShards(categorical, dir).ok());
  const auto shard = ShardFileSource::Open(dir);
  ASSERT_TRUE(shard.ok());

  for (const SeedScheme scheme :
       {SeedScheme::kV2Lanes, SeedScheme::kV3Batched}) {
    freq::FrequencyOptions opts;
    opts.total_epsilon = 2.0;
    opts.report_dims = 2;
    opts.seed = 6;
    opts.seed_scheme = scheme;
    opts.num_threads = 1;
    const auto mechanism = mech::MakeMechanism("piecewise");
    ASSERT_TRUE(mechanism.ok());

    const auto on_resident = freq::RunFrequencyEstimation(
        dataset.value(), mechanism.value(), opts);
    ASSERT_TRUE(on_resident.ok());
    opts.num_threads = 4;
    const auto on_shard = freq::RunFrequencyEstimation(
        shard.value(), schema.value(), mechanism.value(), opts);
    ASSERT_TRUE(on_shard.ok()) << on_shard.status().ToString();

    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 5; ++k) {
        EXPECT_EQ(Bits(on_resident.value().raw[j][k]),
                  Bits(on_shard.value().raw[j][k]))
            << j << ":" << k;
        EXPECT_EQ(Bits(on_resident.value().recalibrated[j][k]),
                  Bits(on_shard.value().recalibrated[j][k]))
            << j << ":" << k;
        EXPECT_EQ(Bits(on_resident.value().true_frequencies[j][k]),
                  Bits(on_shard.value().true_frequencies[j][k]))
            << j << ":" << k;
      }
    }
  }
}

// Variance estimates, captured before the lazy-source rework of
// hdr4me::RunVarianceEstimation, pin the rework (slices + transform
// chains instead of materialized half datasets) to the exact old bits.
TEST(SourceBitIdentityTest, VarianceMatchesPreReworkGoldenBits) {
  Rng rng(3);
  GaussianSpec spec;
  spec.num_users = 6000;
  spec.num_dims = 4;
  spec.stddev = 0.25;
  spec.high_fraction = 0.0;
  const auto dataset = Generate(spec, &rng);
  ASSERT_TRUE(dataset.ok());

  struct Golden {
    std::size_t report_dims;
    bool recalibrate;
    std::uint64_t variance[4];
    std::uint64_t mse;
  };
  const Golden goldens[] = {
      {0,
       false,
       {0x3fac400f8ab2d6eaULL, 0x3fb5467762f7ee90ULL, 0x3fb150008a98b928ULL,
        0x3fb3210961da33b8ULL},
       0x3f21bb6363a6cfa4ULL},
      {0,
       true,
       {0x0000000000000000ULL, 0x3f99dae65100eb5eULL, 0x3f7cace35daab098ULL,
        0x3f8fcd7db0ffe9d4ULL},
       0x3f665dffbdf03bdeULL},
      {2,
       false,
       {0x3fac2efb522ce04dULL, 0x3fadbde69bcb8772ULL, 0x3fb0ae79b35adf67ULL,
        0x3fb482e7c077eaa1ULL},
       0x3f1b5ac7244b3c88ULL},
      {2,
       true,
       {0x3f8e2f92b94234d8ULL, 0x3f9229e69d9aec02ULL, 0x3f992b6b3def1abcULL,
        0x3fa437190c736693ULL},
       0x3f5b05f72bc3c3c9ULL},
  };
  for (const Golden& golden : goldens) {
    hdr4me::VarianceOptions opts;
    opts.total_epsilon = 4.0;
    opts.report_dims = golden.report_dims;
    opts.seed = 9;
    opts.recalibrate = golden.recalibrate;
    const auto mechanism = mech::MakeMechanism("piecewise");
    ASSERT_TRUE(mechanism.ok());
    const auto run = hdr4me::RunVarianceEstimation(dataset.value(),
                                                   mechanism.value(), opts);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(Bits(run.value().estimated_variance[j]), golden.variance[j])
          << golden.report_dims << ":" << golden.recalibrate << ":" << j;
    }
    EXPECT_EQ(Bits(run.value().mse), golden.mse);
  }
}

TEST(SourceBitIdentityTest, VarianceAcrossResidentAndShard) {
  Rng rng(3);
  GaussianSpec spec;
  spec.num_users = 6000;
  spec.num_dims = 4;
  spec.stddev = 0.25;
  spec.high_fraction = 0.0;
  const auto dataset = Generate(spec, &rng);
  ASSERT_TRUE(dataset.ok());

  const std::string dir = TempShardDir("variance_identity");
  const ResidentChunkSource resident(&dataset.value());
  ASSERT_TRUE(WriteShards(resident, dir).ok());
  const auto shard = ShardFileSource::Open(dir);
  ASSERT_TRUE(shard.ok());

  hdr4me::VarianceOptions opts;
  opts.total_epsilon = 4.0;
  opts.report_dims = 2;
  opts.seed = 9;
  opts.recalibrate = true;
  const auto mechanism = mech::MakeMechanism("piecewise");
  ASSERT_TRUE(mechanism.ok());
  const auto on_resident = hdr4me::RunVarianceEstimation(
      dataset.value(), mechanism.value(), opts);
  const auto on_shard = hdr4me::RunVarianceEstimation(shard.value(),
                                                      mechanism.value(), opts);
  ASSERT_TRUE(on_resident.ok());
  ASSERT_TRUE(on_shard.ok());
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(Bits(on_resident.value().estimated_variance[j]),
              Bits(on_shard.value().estimated_variance[j]))
        << j;
    EXPECT_EQ(Bits(on_resident.value().true_variance[j]),
              Bits(on_shard.value().true_variance[j]))
        << j;
  }
  EXPECT_EQ(Bits(on_resident.value().mse), Bits(on_shard.value().mse));
}

}  // namespace
}  // namespace data
}  // namespace hdldp
