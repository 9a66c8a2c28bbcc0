// Tests of the shared run controls (engine::RunControl): checkpoint
// digests stay byte-stable, so a checkpoint written by an earlier build
// still resumes, and every statistic accepts or rejects a configuration
// exactly as protocol::ValidateRunControl rules.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generators.h"
#include "engine/run_control.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "hdr4me/variance.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"
#include "protocol/run_control.h"

namespace hdldp {
namespace {

constexpr std::size_t kUsers = 2 * data::kUsersPerChunk;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "hdldp_run_control_" + name;
  for (const char* suffix : {"", ".values", ".squares"}) {
    std::remove((path + suffix).c_str());
  }
  return path;
}

// `source` with every pull of chunk `chunk` failing (DataLoss): the run
// stops after opening its checkpoint, leaving the header on disk.
data::FaultInjectingChunkSource FailChunk(const data::ChunkSource& source,
                                          std::size_t chunk) {
  data::FaultSchedule schedule;
  data::FaultSpec spec;
  spec.kind = data::FaultSpec::Kind::kPersistent;
  spec.chunk = chunk;
  schedule.Add(spec);
  return data::FaultInjectingChunkSource(&source, schedule);
}

// Hex of the run digest in the header of the checkpoint at `path`
// (protocol/snapshot.h layout: u32 digest length at offset 12, digest
// bytes from offset 16).
std::string HeaderDigestHex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  if (bytes.size() < 16) return "<no checkpoint>";
  std::uint32_t length = 0;
  std::memcpy(&length, bytes.data() + 12, 4);
  if (bytes.size() < 16 + std::size_t{length}) return "<truncated>";
  std::string hex;
  char buf[3];
  for (std::size_t i = 16; i < 16 + std::size_t{length}; ++i) {
    std::snprintf(buf, sizeof(buf), "%02x",
                  static_cast<unsigned>(static_cast<unsigned char>(bytes[i])));
    hex += buf;
  }
  return hex;
}

data::Dataset NumericDataset() {
  Rng rng(17);
  return data::Generate(data::UniformSpec{.num_users = kUsers, .num_dims = 4},
                        &rng).value();
}

// Digest bytes recorded with the build before engine::RunControl: a
// checkpoint that build wrote must still resume.
constexpr char kMeanNumericDigest[] =
    "04000000000000006d65616e0900000000000000706965636577697365000000000000f8"
    "3f02000000000000006300000000000000020000000000000000200000000000000400"
    "0000000000000000000000000000";
constexpr char kMeanHadamard1Digest[] =
    "04000000000000006d65616e0900000000000000686164616d61726431000000000000f8"
    "3f02000000000000006300000000000000020000000000000000200000000000000400"
    "0000000000000000000000000000";
constexpr char kFreqNumericDigest[] =
    "04000000000000006672657107000000000000006c61706c616365000000000000004002"
    "0000000000000007000000000000000300000000000000002000000000000003000000"
    "000000000a000000000000000300000000000000050000000000000002000000000000"
    "000000000000000000";
// The oue row of the same run: the encoding name replaces the mechanism.
constexpr char kFreqOueDigest[] =
    "04000000000000006672657103000000000000006f7565000000000000004002000000"
    "0000000007000000000000000300000000000000002000000000000003000000000000"
    "000a000000000000000300000000000000050000000000000002000000000000000000"
    "000000000000";
constexpr char kVarianceValuesDigest[] =
    "04000000000000006d65616e05000000000000006475636869000000000000e03f040000"
    "0000000000290000000000000003000000000000000010000000000000040000000000"
    "00000000000000000000";
constexpr char kVarianceSquaresDigest[] =
    "04000000000000006d65616e05000000000000006475636869000000000000e03f040000"
    "0000000000e9ec05000000000003000000000000000010000000000000040000000000"
    "00000000000000000000";

TEST(RunDigestGoldenTest, MeanDigestsAreByteStable) {
  const data::Dataset dataset = NumericDataset();
  const data::ResidentChunkSource resident(&dataset);
  const auto failing = FailChunk(resident, 0);
  const auto mechanism = mech::MakeMechanism("piecewise").value();
  protocol::PipelineOptions options;
  options.total_epsilon = 1.5;
  options.report_dims = 2;
  options.seed = 99;
  options.seed_scheme = SeedScheme::kV2Lanes;

  options.checkpoint_path = TempPath("mean_numeric");
  EXPECT_FALSE(protocol::RunMeanEstimation(failing, mechanism, options).ok());
  EXPECT_EQ(HeaderDigestHex(options.checkpoint_path), kMeanNumericDigest);

  options.encoding = protocol::ReportEncoding::kHadamard1;
  options.checkpoint_path = TempPath("mean_hadamard1");
  EXPECT_FALSE(protocol::RunMeanEstimation(failing, mechanism, options).ok());
  EXPECT_EQ(HeaderDigestHex(options.checkpoint_path), kMeanHadamard1Digest);
}

TEST(RunDigestGoldenTest, FreqDigestIsByteStable) {
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>{3, 5, 2})
          .value();
  Rng rng(23);
  const auto dataset =
      freq::GenerateCategorical(kUsers, schema, 1.0, &rng).value();
  const freq::CategoricalChunkSource resident(&dataset);
  const auto failing = FailChunk(resident, 0);
  // An oracle digest names the encoding where a numeric one names the
  // mechanism, so an oracle checkpoint never resumes a numeric run.
  const struct {
    const char* name;
    protocol::ReportEncoding encoding;
    const char* expected;
  } rows[] = {{"numeric", protocol::ReportEncoding::kDense,
               kFreqNumericDigest},
              {"oue", protocol::ReportEncoding::kOue, kFreqOueDigest}};
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    freq::FrequencyOptions options;
    options.total_epsilon = 2.0;
    options.report_dims = 2;
    options.seed = 7;
    options.encoding = row.encoding;
    options.checkpoint_path = TempPath(std::string("freq_") + row.name);
    const bool oracle = row.encoding == protocol::ReportEncoding::kOue;
    EXPECT_FALSE(freq::RunFrequencyEstimation(
                     failing, schema,
                     oracle ? nullptr : mech::MakeMechanism("laplace").value(),
                     options)
                     .ok());
    EXPECT_EQ(HeaderDigestHex(options.checkpoint_path), row.expected);
  }
  EXPECT_STRNE(kFreqOueDigest, kFreqNumericDigest);
}

TEST(RunDigestGoldenTest, VarianceHalfDigestsAreByteStable) {
  const data::Dataset dataset = NumericDataset();
  const data::ResidentChunkSource resident(&dataset);
  const auto mechanism = mech::MakeMechanism("duchi").value();
  hdr4me::VarianceOptions options;
  options.total_epsilon = 0.5;
  options.seed = 41;

  // Chunk 0 is the values half, chunk 1 the squares half.
  const auto values_failing = FailChunk(resident, 0);
  options.checkpoint_path = TempPath("variance_a");
  EXPECT_FALSE(
      hdr4me::RunVarianceEstimation(values_failing, mechanism, options).ok());
  EXPECT_EQ(HeaderDigestHex(options.checkpoint_path + ".values"),
            kVarianceValuesDigest);

  const auto squares_failing = FailChunk(resident, 1);
  options.checkpoint_path = TempPath("variance_b");
  EXPECT_FALSE(
      hdr4me::RunVarianceEstimation(squares_failing, mechanism, options).ok());
  EXPECT_EQ(HeaderDigestHex(options.checkpoint_path + ".squares"),
            kVarianceSquaresDigest);
}

// One run-control configuration and the verdict each statistic must
// reach on it. Variance has no encoding option (its halves are dense mean
// runs), so its pipeline runs on the dense rows only, under the mean
// verdict.
struct CarveOut {
  const char* name;
  protocol::ReportEncoding encoding;
  SeedScheme scheme;
  bool checkpoint;
  StatusCode mean;
  StatusCode freq;
  int max_attempts = 1;
  bool allow_missing_chunks = false;
};

constexpr StatusCode kOk = StatusCode::kOk;
constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;

const CarveOut kCarveOuts[] = {
    {"dense v3 checkpoint", protocol::ReportEncoding::kDense,
     SeedScheme::kV3Batched, true, kOk, kOk},
    {"dense v1", protocol::ReportEncoding::kDense, SeedScheme::kV1Scalar,
     false, kOk, kOk},
    {"dense v1 checkpoint", protocol::ReportEncoding::kDense,
     SeedScheme::kV1Scalar, true, kOk, kInvalid},
    {"dense v2 checkpoint", protocol::ReportEncoding::kDense,
     SeedScheme::kV2Lanes, true, kOk, kOk},
    {"oue", protocol::ReportEncoding::kOue, SeedScheme::kV3Batched, false,
     kInvalid, kOk},
    {"oue checkpoint", protocol::ReportEncoding::kOue, SeedScheme::kV3Batched,
     true, kInvalid, kOk},
    {"olh v1 checkpoint", protocol::ReportEncoding::kOlh,
     SeedScheme::kV1Scalar, true, kInvalid, kOk},
    {"hadamard1 checkpoint", protocol::ReportEncoding::kHadamard1,
     SeedScheme::kV3Batched, true, kOk, kInvalid},
    {"dense v1 retry", protocol::ReportEncoding::kDense,
     SeedScheme::kV1Scalar, false, kOk, kOk, 3},
    {"dense v1 quarantine", protocol::ReportEncoding::kDense,
     SeedScheme::kV1Scalar, false, kOk, kInvalid, 1, true},
    {"dense v3 retry quarantine", protocol::ReportEncoding::kDense,
     SeedScheme::kV3Batched, false, kOk, kOk, 3, true},
    {"olh v1 retry quarantine", protocol::ReportEncoding::kOlh,
     SeedScheme::kV1Scalar, false, kInvalid, kOk, 3, true},
};

TEST(RunControlTest, CarveOutsAreOneRuleForEveryStatistic) {
  const data::Dataset numeric = NumericDataset();
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>{3, 5, 2})
          .value();
  Rng rng(29);
  const auto categorical =
      freq::GenerateCategorical(kUsers, schema, 1.0, &rng).value();
  for (const CarveOut& row : kCarveOuts) {
    SCOPED_TRACE(row.name);
    engine::RunControl control;
    control.seed_scheme = row.scheme;
    if (row.checkpoint) control.checkpoint_path = TempPath("carve_out");
    control.retry.max_attempts = row.max_attempts;
    control.allow_missing_chunks = row.allow_missing_chunks;

    protocol::PipelineOptions mean;
    static_cast<engine::RunControl&>(mean) = control;
    mean.report_dims = 2;
    mean.encoding = row.encoding;
    EXPECT_EQ(protocol::ValidateRunControl(control, row.encoding,
                                           protocol::Workload::kMean)
                  .code(),
              row.mean);
    EXPECT_EQ(protocol::RunMeanEstimation(
                  numeric, mech::MakeMechanism("piecewise").value(), mean)
                  .status()
                  .code(),
              row.mean);

    freq::FrequencyOptions frequency;
    static_cast<engine::RunControl&>(frequency) = control;
    frequency.report_dims = 2;
    frequency.encoding = row.encoding;
    EXPECT_EQ(protocol::ValidateRunControl(control, row.encoding,
                                           protocol::Workload::kFrequency)
                  .code(),
              row.freq);
    EXPECT_EQ(freq::RunFrequencyEstimation(
                  categorical, mech::MakeMechanism("laplace").value(),
                  frequency)
                  .status()
                  .code(),
              row.freq);

    // A variance run is two dense mean runs, so it follows the mean code.
    if (row.encoding != protocol::ReportEncoding::kDense) continue;
    hdr4me::VarianceOptions variance;
    static_cast<engine::RunControl&>(variance) = control;
    EXPECT_EQ(hdr4me::RunVarianceEstimation(
                  numeric, mech::MakeMechanism("duchi").value(), variance)
                  .status()
                  .code(),
              row.mean);
  }
}

TEST(RunControlTest, FreqV1RejectionsNameTheFlag) {
  constexpr auto kDense = protocol::ReportEncoding::kDense;
  constexpr auto kFrequency = protocol::Workload::kFrequency;
  engine::RunControl control;
  control.seed_scheme = SeedScheme::kV1Scalar;
  control.allow_missing_chunks = true;
  const Status quarantine =
      protocol::ValidateRunControl(control, kDense, kFrequency);
  EXPECT_NE(quarantine.message().find("--allow-missing-chunks"),
            std::string::npos)
      << quarantine.ToString();
}

}  // namespace
}  // namespace hdldp
