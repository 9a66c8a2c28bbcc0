// Shard format tests: roundtrip (single and multi file, unaligned
// appends), and every corruption path returning a Status — corrupt
// magic, version mismatch, truncated file, bad geometry — never UB.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/file_writer.h"
#include "common/math.h"
#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/shard.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace data {
namespace {

// Fresh (removed-if-present) per-test shard directory path.
std::string TempShardDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hdldp_shard_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Dataset TestDataset(std::size_t users, std::size_t dims, std::uint64_t seed) {
  Rng rng(seed);
  return Generate(UniformSpec{.num_users = users, .num_dims = dims},
                  &rng).value();
}

// Every chunk of `source` must hold exactly the dataset's rows, bitwise.
void ExpectSourceMatches(const ChunkSource& source, const Dataset& dataset) {
  ASSERT_EQ(source.num_users(), dataset.num_users());
  ASSERT_EQ(source.num_dims(), dataset.num_dims());
  ChunkBuffer buffer;
  for (std::size_t c = 0; c < source.num_chunks(); ++c) {
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

// Flips bytes at `offset` in the first part file.
void PatchPartFile(const std::string& dir, const char* bytes,
                   std::size_t count, std::size_t offset) {
  std::fstream f(dir + "/part-00000.hds",
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(bytes, static_cast<std::streamsize>(count));
  ASSERT_TRUE(f.good());
}

TEST(ShardTest, RoundtripSingleFile) {
  const std::string dir = TempShardDir("roundtrip_single");
  const Dataset dataset = TestDataset(10000, 3, 21);
  const ResidentChunkSource resident(&dataset);
  const auto rows = WriteShards(resident, dir);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value(), 10000u);

  const auto opened = ShardFileSource::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectSourceMatches(opened.value(), dataset);

  // Streaming TrueMean over the mmap windows is bit-identical to the
  // resident computation.
  const auto mean = opened.value().TrueMean();
  ASSERT_TRUE(mean.ok());
  const auto expected = dataset.TrueMean();
  for (std::size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(mean.value()[j], expected[j]) << j;
  }
}

TEST(ShardTest, RoundtripMultiFileAndReverseOrderPulls) {
  const std::string dir = TempShardDir("roundtrip_multi");
  const Dataset dataset = TestDataset(3 * kUsersPerChunk + 17, 2, 22);
  const ResidentChunkSource resident(&dataset);
  ShardWriterOptions options;
  options.chunks_per_file = 1;  // Forces one chunk per part file.
  ASSERT_TRUE(WriteShards(resident, dir, options).ok());

  const auto opened = ShardFileSource::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectSourceMatches(opened.value(), dataset);

  // Chunks are random access: pulling back-to-front sees the same rows.
  ChunkBuffer buffer;
  for (std::size_t c = opened.value().num_chunks(); c-- > 0;) {
    const auto rows = opened.value().Chunk(c, &buffer);
    ASSERT_TRUE(rows.ok());
    const auto expected = dataset.Rows(opened.value().ChunkBegin(c),
                                       opened.value().ChunkUsers(c));
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(rows.value()[k], expected[k]);
    }
  }
}

TEST(ShardTest, WriterAcceptsAnyRowGranularity) {
  // Appending row-by-row and in odd-sized batches must produce the same
  // files as one whole-population append.
  const Dataset dataset = TestDataset(kUsersPerChunk + 300, 3, 23);
  const std::string dir_a = TempShardDir("granularity_a");
  const std::string dir_b = TempShardDir("granularity_b");
  ShardWriterOptions options;
  options.chunks_per_file = 1;

  {
    auto writer = ShardWriter::Create(dir_a, 3, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer.value().Append(dataset.Rows(0, dataset.num_users())).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  {
    auto writer = ShardWriter::Create(dir_b, 3, options);
    ASSERT_TRUE(writer.ok());
    std::size_t row = 0;
    const std::size_t batches[] = {1, 999, 2048, 1000, 300, 48};
    for (const std::size_t batch : batches) {
      ASSERT_TRUE(writer.value().Append(dataset.Rows(row, batch)).ok());
      row += batch;
    }
    ASSERT_EQ(row, dataset.num_users());
    ASSERT_TRUE(writer.value().Finish().ok());
    EXPECT_EQ(writer.value().rows_written(), dataset.num_users());
  }

  const auto a = ShardFileSource::Open(dir_a);
  const auto b = ShardFileSource::Open(dir_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSourceMatches(a.value(), dataset);
  ExpectSourceMatches(b.value(), dataset);
}

TEST(ShardTest, WriterValidatesUsage) {
  const std::string dir = TempShardDir("writer_validation");
  auto writer = ShardWriter::Create(dir, 4, {});
  ASSERT_TRUE(writer.ok());

  // Partial rows never hit the disk.
  const std::vector<double> partial(6, 0.5);
  EXPECT_EQ(writer.value().Append(partial).code(),
            StatusCode::kInvalidArgument);

  // Finishing an empty shard is refused — an empty directory would be
  // indistinguishable from a missing population.
  EXPECT_EQ(writer.value().Finish().code(), StatusCode::kFailedPrecondition);

  const std::vector<double> row(4, 0.25);
  ASSERT_TRUE(writer.value().Append(row).ok());
  ASSERT_TRUE(writer.value().Finish().ok());
  EXPECT_EQ(writer.value().Finish().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer.value().Append(row).code(),
            StatusCode::kFailedPrecondition);

  // The directory now holds shards; a second writer must refuse it.
  EXPECT_EQ(ShardWriter::Create(dir, 4, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardTest, OpenMissingOrEmptyDirectoryIsNotFound) {
  EXPECT_EQ(
      ShardFileSource::Open(TempShardDir("never_created")).status().code(),
      StatusCode::kNotFound);

  const std::string empty = TempShardDir("empty_dir");
  std::filesystem::create_directories(empty);
  EXPECT_EQ(ShardFileSource::Open(empty).status().code(),
            StatusCode::kNotFound);
}

TEST(ShardTest, CorruptMagicIsDataLoss) {
  const std::string dir = TempShardDir("corrupt_magic");
  const Dataset dataset = TestDataset(100, 2, 24);
  const ResidentChunkSource resident(&dataset);
  ASSERT_TRUE(WriteShards(resident, dir).ok());
  PatchPartFile(dir, "NOTSHARD", 8, 0);
  const auto opened = ShardFileSource::Open(dir);
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(ShardTest, VersionMismatchIsInvalidArgument) {
  const std::string dir = TempShardDir("version_mismatch");
  const Dataset dataset = TestDataset(100, 2, 25);
  const ResidentChunkSource resident(&dataset);
  ASSERT_TRUE(WriteShards(resident, dir).ok());
  const std::uint32_t future_version = kShardFormatVersion + 1;
  PatchPartFile(dir, reinterpret_cast<const char*>(&future_version), 4, 8);
  const auto opened = ShardFileSource::Open(dir);
  ASSERT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().ToString().find("version"), std::string::npos);
}

TEST(ShardTest, TruncatedFileIsDataLoss) {
  const std::string dir = TempShardDir("truncated");
  const Dataset dataset = TestDataset(100, 2, 26);
  const ResidentChunkSource resident(&dataset);
  ASSERT_TRUE(WriteShards(resident, dir).ok());
  const std::string path = dir + "/part-00000.hds";
  // Drop the last 8 bytes: the size no longer matches the header.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);
  const auto opened = ShardFileSource::Open(dir);
  ASSERT_EQ(opened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(opened.status().ToString().find("truncated"), std::string::npos);
}

TEST(ShardTest, PayloadBitFlipIsDataLossAtTheFlippedChunk) {
  const std::string dir = TempShardDir("bit_flip");
  const Dataset dataset = TestDataset(kUsersPerChunk + 100, 2, 28);
  const ResidentChunkSource resident(&dataset);
  ASSERT_TRUE(WriteShards(resident, dir).ok());
  // Flip one byte inside chunk 1's payload. The file size and header
  // stay valid, so only the CRC check can catch it.
  const std::size_t chunk1_offset =
      4096 + kUsersPerChunk * 2 * sizeof(double) + 123;
  const char flipped = '\x5a';
  PatchPartFile(dir, &flipped, 1, chunk1_offset);

  const auto opened = ShardFileSource::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value().checksummed());
  ChunkBuffer buffer;
  // Chunk 0 is untouched and verifies clean.
  EXPECT_TRUE(opened.value().Chunk(0, &buffer).ok());
  // Chunk 1 must surface as DataLoss naming the chunk — never a
  // silently wrong estimate.
  const auto bad = opened.value().Chunk(1, &buffer);
  ASSERT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.status().ToString().find("chunk 1"), std::string::npos);
}

TEST(ShardTest, CrcFailedChunkIsQuarantinedAndLeftOutOfTheTruth) {
  // A mean run over a shard whose chunk 0 fails its CRC completes under
  // allow_missing_chunks and scores against the surviving users: no pass
  // (estimate or ground truth) may read the corrupt chunk again.
  const std::string dir = TempShardDir("quarantine_truth");
  const std::size_t users = 2 * kUsersPerChunk + 700;
  const std::size_t dims = 3;
  const Dataset dataset = TestDataset(users, dims, 31);
  const ResidentChunkSource resident(&dataset);
  ASSERT_TRUE(WriteShards(resident, dir).ok());
  const char flipped = '\x5a';
  PatchPartFile(dir, &flipped, 1, 4096 + 1000);

  const auto opened = ShardFileSource::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  protocol::PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 5;
  opts.allow_missing_chunks = true;
  const auto run = protocol::RunMeanEstimation(
      opened.value(), mech::MakeMechanism("piecewise").value(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().outcome.quarantined_chunks,
            std::vector<std::size_t>{0});
  EXPECT_EQ(run.value().outcome.surviving_users, users - kUsersPerChunk);

  std::vector<NeumaierSum> sums(dims);
  for (std::size_t i = kUsersPerChunk; i < users; ++i) {
    for (std::size_t j = 0; j < dims; ++j) sums[j].Add(dataset.At(i, j));
  }
  ASSERT_EQ(run.value().true_mean.size(), dims);
  for (std::size_t j = 0; j < dims; ++j) {
    EXPECT_EQ(run.value().true_mean[j],
              sums[j].Total() / static_cast<double>(users - kUsersPerChunk))
        << j;
  }
}

TEST(ShardTest, VersionOneFilesStayReadableWithoutChecksums) {
  const std::string dir = TempShardDir("v1_compat");
  const Dataset dataset = TestDataset(100, 2, 29);
  const ResidentChunkSource resident(&dataset);
  ASSERT_TRUE(WriteShards(resident, dir).ok());
  // Rewrite the part as a v1 file: strip the one-chunk CRC trailer and
  // patch the version field back to 1.
  const std::string path = dir + "/part-00000.hds";
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
  const std::uint32_t v1 = 1;
  PatchPartFile(dir, reinterpret_cast<const char*>(&v1), 4, 8);

  const auto opened = ShardFileSource::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened.value().checksummed());
  ExpectSourceMatches(opened.value(), dataset);
}

TEST(ShardTest, InterruptedWriteIsRejectedAndRecoverable) {
  const std::string dir = TempShardDir("interrupted");
  const Dataset dataset = TestDataset(2 * kUsersPerChunk, 2, 30);
  const ResidentChunkSource resident(&dataset);
  ShardWriterOptions options;
  options.chunks_per_file = 1;
  ASSERT_TRUE(WriteShards(resident, dir, options).ok());

  // Simulate a crash mid-write: a stray .tmp plus a torn final part.
  {
    std::ofstream tmp(dir + "/part-00002.hds.tmp", std::ios::binary);
    tmp << "partial";
  }
  const std::string last = dir + "/part-00001.hds";
  std::filesystem::resize_file(last, std::filesystem::file_size(last) - 16);

  // The reader refuses the whole directory — the stray .tmp proves the
  // write never completed.
  const auto opened = ShardFileSource::Open(dir);
  ASSERT_EQ(opened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(opened.status().ToString().find(".tmp"), std::string::npos);

  // Re-running the writer recovers: Create() wipes the debris and the
  // directory round-trips cleanly afterwards.
  ASSERT_TRUE(WriteShards(resident, dir, options).ok());
  const auto reopened = ShardFileSource::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value().checksummed());
  ExpectSourceMatches(reopened.value(), dataset);
}

TEST(ShardTest, FinishedDirectoryHasNoTemporaryFiles) {
  const std::string dir = TempShardDir("no_temps");
  const Dataset dataset = TestDataset(3 * kUsersPerChunk + 5, 2, 31);
  const ResidentChunkSource resident(&dataset);
  ShardWriterOptions options;
  options.chunks_per_file = 2;
  ASSERT_TRUE(WriteShards(resident, dir, options).ok());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

// With chunks_per_file=1, each part file costs exactly five writer
// operations: 5i+0 header, 5i+1 payload, 5i+2 CRC trailer, 5i+3 the
// num_users pwrite patch, 5i+4 the sealing fsync. The fault tests
// below target specific ops through that map.

TEST(ShardTest, InjectedNoSpaceLeavesSealedPartsIntact) {
  const std::string dir = TempShardDir("fault_nospace");
  const Dataset dataset = TestDataset(2 * kUsersPerChunk + 10, 2, 40);
  const ResidentChunkSource resident(&dataset);
  ShardWriterOptions options;
  options.chunks_per_file = 1;
  // Op 10 is part 2's header write: parts 0 and 1 are already sealed.
  options.write_faults.Add(10, WriteFaultKind::kNoSpace);

  const auto rows = WriteShards(resident, dir, options);
  ASSERT_EQ(rows.status().code(), StatusCode::kResourceExhausted);

  // The two completed parts survived; the torn third is quarantined
  // behind its .tmp name, so the directory reads as interrupted, never
  // as a silently short population.
  EXPECT_TRUE(std::filesystem::exists(dir + "/part-00000.hds"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/part-00001.hds"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/part-00002.hds"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/part-00002.hds.tmp"));
  EXPECT_EQ(ShardFileSource::Open(dir).status().code(), StatusCode::kDataLoss);

  // Retrying with a clean writer recovers the directory completely.
  ShardWriterOptions clean;
  clean.chunks_per_file = 1;
  ASSERT_TRUE(WriteShards(resident, dir, clean).ok());
  const auto reopened = ShardFileSource::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSourceMatches(reopened.value(), dataset);
}

TEST(ShardTest, InjectedShortWriteNeverSealsATornPart) {
  const std::string dir = TempShardDir("fault_short");
  const Dataset dataset = TestDataset(kUsersPerChunk, 2, 41);
  const ResidentChunkSource resident(&dataset);
  ShardWriterOptions options;
  options.chunks_per_file = 1;
  // Op 1 is part 0's payload write: half the chunk lands, then ENOSPC.
  options.write_faults.Add(1, WriteFaultKind::kShortWrite);

  const auto rows = WriteShards(resident, dir, options);
  ASSERT_EQ(rows.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(std::filesystem::exists(dir + "/part-00000.hds"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/part-00000.hds.tmp"));
  EXPECT_EQ(ShardFileSource::Open(dir).status().code(), StatusCode::kDataLoss);
}

TEST(ShardTest, InjectedFsyncFailureIsDataLossAndRecoverable) {
  const std::string dir = TempShardDir("fault_fsync");
  const Dataset dataset = TestDataset(kUsersPerChunk, 2, 42);
  const ResidentChunkSource resident(&dataset);
  ShardWriterOptions options;
  options.chunks_per_file = 1;
  // Op 4 is part 0's sealing fsync: the bytes may or may not be
  // durable, so the writer must refuse to rename the part into place.
  options.write_faults.Add(4, WriteFaultKind::kFsyncFailure);

  const auto rows = WriteShards(resident, dir, options);
  ASSERT_EQ(rows.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(std::filesystem::exists(dir + "/part-00000.hds"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/part-00000.hds.tmp"));

  ShardWriterOptions clean;
  clean.chunks_per_file = 1;
  ASSERT_TRUE(WriteShards(resident, dir, clean).ok());
  const auto reopened = ShardFileSource::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSourceMatches(reopened.value(), dataset);
}

TEST(ShardTest, ChunkIndexOutOfRange) {
  const std::string dir = TempShardDir("chunk_oob");
  const Dataset dataset = TestDataset(100, 2, 27);
  const ResidentChunkSource resident(&dataset);
  ASSERT_TRUE(WriteShards(resident, dir).ok());
  const auto opened = ShardFileSource::Open(dir);
  ASSERT_TRUE(opened.ok());
  ChunkBuffer buffer;
  EXPECT_EQ(opened.value().Chunk(1, &buffer).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace data
}  // namespace hdldp
