// Tests of the mean run's fused ground truth: over a source that keeps
// no truth of its own, each worker of RunMeanEstimation's estimate pass
// leaves the column sums of the chunk it pulled in that chunk's slot
// (data::ChunkPartials), and the run merges the slots in chunk order.
// ChunkPartials gives the same bits whatever order and threads fill its
// slots, skips quarantined chunks and pulls only the chunks no one set.
// The truth must equal data::SurvivingMean bit for bit at every thread
// count, seed scheme, encoding and report width, over quarantined
// shards, resumed runs and multi-chunk reduction groups; a run that does
// not resume pulls each chunk exactly once; and a failing chunk ends the
// run with its error.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "counting_source.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generator_source.h"
#include "data/generators.h"
#include "data/shard.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace {

constexpr std::size_t kChunk = data::kUsersPerChunk;

// The mean truth's partial of one chunk.
Result<NeumaierColumns> ColumnSums(std::size_t dims,
                                   std::span<const double> rows) {
  NeumaierColumns sums(dims);
  sums.AddRows(rows);
  return sums;
}

// Fails chunk 0 with a non-quarantinable InvalidArgument, late enough
// that other workers have pulled later chunks by then.
class SlowFailingSource final : public data::ChunkSource {
 public:
  explicit SlowFailingSource(const data::ChunkSource* base) : base_(base) {}

  std::size_t num_users() const override { return base_->num_users(); }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(
      std::size_t chunk, data::ChunkBuffer* buffer) const override {
    if (chunk != 0) return base_->Chunk(chunk, buffer);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return Status::InvalidArgument("chunk 0 is malformed");
  }

 private:
  const data::ChunkSource* base_;
};

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// Every column's raw sum and compensation, as bits.
std::vector<std::uint64_t> StateBits(const NeumaierColumns& sums,
                                     std::size_t dims) {
  std::vector<double> state;
  for (std::size_t j = 0; j < dims; ++j) {
    state.push_back(sums.RawSum(j));
    state.push_back(sums.Compensation(j));
  }
  return Bits(state);
}

data::Dataset Uniform(std::size_t users, std::size_t dims,
                      std::uint64_t seed) {
  Rng rng(seed);
  return data::Generate(data::UniformSpec{.num_users = users,
                                          .num_dims = dims},
                        &rng)
      .value();
}

data::GeneratorChunkSource Generated(std::size_t users, std::size_t dims) {
  return data::GeneratorChunkSource::Create(
             data::UniformSpec{.num_users = users, .num_dims = dims}, 17)
      .value();
}

mech::MechanismPtr Piecewise() {
  return mech::MakeMechanism("piecewise").value();
}

protocol::PipelineOptions Options(std::size_t threads) {
  protocol::PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 11;
  opts.num_threads = threads;
  return opts;
}

std::vector<double> ReferenceTruth(
    const data::ChunkSource& source,
    const std::vector<std::size_t>& quarantined = {}) {
  return data::SurvivingMean(source, quarantined, data::RetryPolicy{})
      .value();
}

TEST(ChunkPartialsTest, MergesInChunkOrderWhoeverFillsTheSlots) {
  // Values over 24 orders of magnitude, so a merge in any other order
  // would round differently.
  constexpr std::size_t kChunks = 37;
  constexpr std::size_t kDims = 3;
  const std::size_t users = (kChunks - 1) * kChunk + 321;
  std::vector<double> values(users * kDims);
  std::mt19937_64 gen(59);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (std::size_t k = 0; k < values.size(); ++k) {
    const double scale = std::pow(10.0, static_cast<double>(gen() % 25) - 12);
    values[k] = unit(gen) * scale;
  }
  const data::Dataset dataset =
      data::Dataset::Adopt(users, kDims, std::move(values)).value();
  const data::ResidentChunkSource source(&dataset);
  ASSERT_EQ(source.num_chunks(), kChunks);
  const auto of_rows = [](std::size_t, std::span<const double> rows) {
    return ColumnSums(kDims, rows);
  };
  const auto finish = [&](const data::ChunkPartials<NeumaierColumns>& partials,
                          const data::ChunkSource& from,
                          const std::vector<std::size_t>& quarantined) {
    return partials
        .Finish(from, quarantined, data::RetryPolicy{}, NeumaierColumns(kDims),
                of_rows)
        .value();
  };
  // Per column, each chunk's NeumaierSum merged in chunk order.
  std::vector<NeumaierSum> columns(kDims);
  for (std::size_t c = 0; c < kChunks; ++c) {
    for (std::size_t j = 0; j < kDims; ++j) {
      NeumaierSum chunk_sum;
      for (std::size_t i = source.ChunkBegin(c);
           i < source.ChunkBegin(c) + source.ChunkUsers(c); ++i) {
        chunk_sum.Add(dataset.At(i, j));
      }
      columns[j].MergeState(chunk_sum);
    }
  }
  std::vector<double> state;
  for (const NeumaierSum& column : columns) {
    state.push_back(column.RawSum());
    state.push_back(column.Compensation());
  }
  const std::vector<std::uint64_t> reference = Bits(state);
  // Nothing set: Finish pulls every chunk.
  ASSERT_EQ(StateBits(finish({}, source, {}), kDims), reference);

  for (const std::size_t threads : {1, 2, 4, 8}) {
    for (const std::uint64_t shuffle_seed : {1, 2, 3}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", shuffle " +
                   std::to_string(shuffle_seed));
      std::vector<std::size_t> order(kChunks);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), std::mt19937_64(shuffle_seed));
      data::ChunkPartials<NeumaierColumns> partials(kChunks);
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> workers;
      for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
          data::ChunkBuffer buffer;
          for (std::size_t i; (i = next.fetch_add(1)) < kChunks;) {
            const std::size_t c = order[i];
            partials.Set(c,
                         ColumnSums(kDims, source.Chunk(c, &buffer).value())
                             .value());
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
      const CountingSource counted(&source);
      EXPECT_EQ(StateBits(finish(partials, counted, {}), kDims), reference);
      EXPECT_EQ(counted.pulls(), std::vector<std::uint32_t>(kChunks, 0));
    }
  }

  // Even chunks set, chunk 4's with sums no chunk has: the quarantined
  // chunks 3, 4 and 20 are skipped, set or not, and only the odd
  // surviving chunks are pulled.
  const std::vector<std::size_t> quarantined = {3, 4, 20};
  data::ChunkPartials<NeumaierColumns> partials(kChunks);
  data::ChunkBuffer buffer;
  for (std::size_t c = 0; c < kChunks; c += 2) {
    partials.Set(c,
                 ColumnSums(kDims, source.Chunk(c, &buffer).value()).value());
  }
  const std::vector<double> junk(kDims, 1e300);
  partials.Set(4, ColumnSums(kDims, junk).value());
  const CountingSource counted(&source);
  EXPECT_EQ(StateBits(finish(partials, counted, quarantined), kDims),
            StateBits(finish({}, source, quarantined), kDims));
  std::vector<std::uint32_t> pulled(kChunks, 0);
  for (std::size_t c = 1; c < kChunks; c += 2) pulled[c] = c == 3 ? 0 : 1;
  EXPECT_EQ(counted.pulls(), pulled);
}

TEST(MeanTruthFoldTest, FusedTruthMatchesSurvivingMeanWithOnePullPerChunk) {
  const std::size_t dims = 6;
  const data::Dataset dataset = Uniform(9 * kChunk + 123, dims, 41);
  const data::ResidentChunkSource resident(&dataset);
  const std::vector<std::uint64_t> truth = Bits(ReferenceTruth(resident));
  struct Config {
    const char* name;
    SeedScheme scheme;
    protocol::ReportEncoding encoding;
    std::size_t report_dims;
  };
  const Config configs[] = {
      {"v1 m=d", SeedScheme::kV1Scalar, protocol::ReportEncoding::kDense, 0},
      {"v1 m<d", SeedScheme::kV1Scalar, protocol::ReportEncoding::kDense, 2},
      {"v2 m=d", SeedScheme::kV2Lanes, protocol::ReportEncoding::kDense, 0},
      {"v2 m<d", SeedScheme::kV2Lanes, protocol::ReportEncoding::kDense, 2},
      {"v3 m=d", SeedScheme::kV3Batched, protocol::ReportEncoding::kDense, 0},
      {"v3 m<d", SeedScheme::kV3Batched, protocol::ReportEncoding::kDense, 2},
      {"hadamard1 m=d", SeedScheme::kV3Batched,
       protocol::ReportEncoding::kHadamard1, 0},
      {"hadamard1 m<d", SeedScheme::kV3Batched,
       protocol::ReportEncoding::kHadamard1, 2},
  };
  for (const Config& config : configs) {
    protocol::PipelineOptions opts = Options(1);
    opts.seed_scheme = config.scheme;
    opts.encoding = config.encoding;
    opts.report_dims = config.report_dims;
    // The resident source owns its truth, so this run folds nothing.
    const auto owned = protocol::RunMeanEstimation(resident, Piecewise(), opts);
    ASSERT_TRUE(owned.ok()) << config.name << ": "
                            << owned.status().ToString();
    ASSERT_EQ(Bits(owned.value().true_mean), truth) << config.name;
    for (const std::size_t threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::string(config.name) + ", threads " +
                   std::to_string(threads));
      const CountingSource counted(&resident);
      opts.num_threads = threads;
      const auto fused = protocol::RunMeanEstimation(counted, Piecewise(), opts);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      EXPECT_EQ(Bits(fused.value().true_mean), truth);
      EXPECT_EQ(Bits(fused.value().estimated_mean),
                Bits(owned.value().estimated_mean));
      EXPECT_EQ(fused.value().mse, owned.value().mse);
      EXPECT_EQ(counted.pulls(),
                std::vector<std::uint32_t>(counted.num_chunks(), 1));
    }
  }
}

TEST(MeanTruthFoldTest, CrcQuarantinedShardChunkStaysOutOfTheFusedTruth) {
  const std::size_t dims = 3;
  const data::Dataset dataset = Uniform(6 * kChunk + 500, dims, 43);
  const data::ResidentChunkSource resident(&dataset);
  const std::string dir = ::testing::TempDir() + "hdldp_truth_fold_crc";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(data::WriteShards(resident, dir).ok());
  {
    // Flip a payload byte of chunk 2 (the part header is 4096 bytes).
    std::fstream part(dir + "/part-00000.hds",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(part.good());
    part.seekp(static_cast<std::streamoff>(4096 + 2 * kChunk * dims * 8 + 80));
    part.put('\x5a');
    ASSERT_TRUE(part.good());
  }
  const auto shards = data::ShardFileSource::Open(dir);
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  const CountingSource counted(&shards.value());
  protocol::PipelineOptions opts = Options(4);
  opts.allow_missing_chunks = true;
  const auto run = protocol::RunMeanEstimation(counted, Piecewise(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().outcome.quarantined_chunks,
            std::vector<std::size_t>{2});
  EXPECT_EQ(Bits(run.value().true_mean),
            Bits(ReferenceTruth(resident, {2})));
  EXPECT_EQ(counted.pulls(),
            std::vector<std::uint32_t>(counted.num_chunks(), 1));
  std::filesystem::remove_all(dir);
}

TEST(MeanTruthFoldTest, ResumedRunFinishesTheTruthFromTheCursor) {
  const data::Dataset dataset = Uniform(9 * kChunk + 77, 4, 47);
  const data::ResidentChunkSource resident(&dataset);
  const std::string path = ::testing::TempDir() + "hdldp_truth_fold_resume";
  std::remove(path.c_str());
  const protocol::PipelineOptions clean_opts = Options(4);
  const auto clean =
      protocol::RunMeanEstimation(resident, Piecewise(), clean_opts).value();

  // The first attempt dies on chunk 1 after checkpointing the others, so
  // the resumed run's estimate pass pulls chunk 1 alone.
  data::FaultSchedule crash;
  crash.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 1});
  const data::FaultInjectingChunkSource crashing(&resident, crash);
  protocol::PipelineOptions opts = Options(4);
  opts.checkpoint_path = path;
  ASSERT_FALSE(protocol::RunMeanEstimation(crashing, Piecewise(), opts).ok());

  // The resumed groups never pull their chunks, so their slots stay empty
  // and the truth pulls them after the reduction.
  const CountingSource counted(&resident);
  const auto resumed = protocol::RunMeanEstimation(counted, Piecewise(), opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed.value().outcome.resumed_from_checkpoint);
  EXPECT_EQ(Bits(resumed.value().estimated_mean), Bits(clean.estimated_mean));
  EXPECT_EQ(Bits(resumed.value().true_mean), Bits(clean.true_mean));
  for (const std::uint32_t pulls : counted.pulls()) {
    EXPECT_GE(pulls, 1u);
    EXPECT_LE(pulls, 2u);
  }
}

TEST(MeanTruthFoldTest, MultiChunkGroupsKeepTheTruthBits) {
  // 514 chunks: every reduction group holds two chunks, so at 4 threads
  // later groups run ahead of earlier ones. Each chunk's sums wait in its
  // slot, so either way every chunk is pulled once.
  const data::GeneratorChunkSource generated = Generated(513 * kChunk + 100, 2);
  const std::vector<std::uint64_t> truth = Bits(ReferenceTruth(generated));
  const CountingSource serial(&generated);
  const auto one = protocol::RunMeanEstimation(serial, Piecewise(), Options(1));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(Bits(one.value().true_mean), truth);
  EXPECT_EQ(serial.pulls(),
            std::vector<std::uint32_t>(serial.num_chunks(), 1));

  const CountingSource parallel(&generated);
  const auto four =
      protocol::RunMeanEstimation(parallel, Piecewise(), Options(4));
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_EQ(Bits(four.value().true_mean), truth);
  EXPECT_EQ(Bits(four.value().estimated_mean),
            Bits(one.value().estimated_mean));
  EXPECT_EQ(parallel.pulls(),
            std::vector<std::uint32_t>(parallel.num_chunks(), 1));
}

TEST(MeanTruthFoldTest, FailingChunkWithWaitersReturnsItsErrorWithoutHanging) {
  // Chunk 0 fails after the other workers have pulled later chunks. With
  // two chunks per group (514 chunks) the failed group's chunk 1 is never
  // pulled. Either way the run returns chunk 0's error.
  struct Case {
    std::size_t chunks;
    std::size_t threads;
  };
  for (const Case c : {Case{12, 4}, Case{514, 4}, Case{514, 2}}) {
    SCOPED_TRACE(std::to_string(c.chunks) + " chunks, threads " +
                 std::to_string(c.threads));
    const data::GeneratorChunkSource generated =
        Generated((c.chunks - 1) * kChunk + 10, 1);
    const SlowFailingSource failing(&generated);
    protocol::PipelineOptions opts = Options(c.threads);
    opts.allow_missing_chunks = true;  // InvalidArgument is never quarantined.
    const auto run = protocol::RunMeanEstimation(failing, Piecewise(), opts);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().ToString().find("chunk 0"), std::string::npos);
  }
}

TEST(MeanTruthFoldTest, SourcesThatOwnTheirTruthAreNotFolded) {
  // A bit flip reaches the estimate but not the truth: the injector
  // answers from its unfaulted base, and no extra pull happens.
  const data::Dataset dataset = Uniform(5 * kChunk + 9, 3, 53);
  const data::ResidentChunkSource resident(&dataset);
  data::FaultSchedule flips;
  flips.Add({.kind = data::FaultSpec::Kind::kBitFlip,
             .chunk = 1,
             .byte_offset = 8 * 7 + 6,
             .xor_mask = 0x40});
  const data::FaultInjectingChunkSource flipped(&resident, flips);
  const auto run = protocol::RunMeanEstimation(flipped, Piecewise(), Options(4));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(Bits(run.value().true_mean), Bits(dataset.TrueMean()));
  for (std::size_t c = 0; c < flipped.num_chunks(); ++c) {
    EXPECT_EQ(flipped.attempts(c), 1u) << c;
  }
}

}  // namespace
}  // namespace hdldp
