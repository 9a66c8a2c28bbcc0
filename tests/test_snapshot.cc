// Tests of the checkpoint codec (protocol/snapshot.h) and of
// checkpoint/resume through the pipelines: torn tails are tolerated,
// digest mismatches are refused, and a run resumed after a mid-run
// failure finishes bit-identical to an uninterrupted run — even when a
// chunk the resumed estimate pass never pulls needs a retry in a
// reference pass.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generators.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "hdr4me/variance.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"
#include "protocol/snapshot.h"

namespace hdldp {
namespace protocol {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "hdldp_snapshot_" + name;
  std::remove(path.c_str());
  return path;
}

RunDigest TestDigest(std::uint64_t tag) {
  RunDigest digest;
  digest.AddString("test");
  digest.AddU64(tag);
  return digest;
}

TEST(SnapshotFileTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("roundtrip");
  const RunDigest digest = TestDigest(1);
  auto file = SnapshotFile::Open(path, digest.bytes).value();
  EXPECT_FALSE(file.resumed());
  const std::vector<unsigned char> state = {1, 2, 3, 4, 5};
  ASSERT_TRUE(file.Save(7, 3, {12, 19}, state).ok());
  ASSERT_TRUE(file.Close().ok());

  auto reopened = SnapshotFile::Open(path, digest.bytes).value();
  EXPECT_TRUE(reopened.resumed());
  const auto group = reopened.Load(7);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->chunks_done, 3u);
  EXPECT_EQ(group->quarantined, (std::vector<std::size_t>{12, 19}));
  EXPECT_EQ(group->acc_state, state);
  EXPECT_FALSE(reopened.Load(8).has_value());
  ASSERT_TRUE(SnapshotFile::Remove(path).ok());
}

TEST(SnapshotFileTest, BareFileNameCompactsInTheWorkingDirectory) {
  // Open flushes the checkpoint's directory after its compaction rename;
  // a bare file name's directory is ".".
  char* const cwd = ::getcwd(nullptr, 0);
  ASSERT_NE(cwd, nullptr);
  ASSERT_EQ(::chdir(::testing::TempDir().c_str()), 0);
  const std::string name = "hdldp_snapshot_bare";
  std::remove(name.c_str());
  const RunDigest digest = TestDigest(3);
  auto file = SnapshotFile::Open(name, digest.bytes).value();
  const std::vector<unsigned char> state = {9};
  ASSERT_TRUE(file.Save(0, 1, {}, state).ok());
  ASSERT_TRUE(file.Close().ok());
  const auto reopened = SnapshotFile::Open(name, digest.bytes);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->resumed());
  EXPECT_TRUE(SnapshotFile::Remove(name).ok());
  EXPECT_EQ(::chdir(cwd), 0);
  std::free(cwd);
}

TEST(SnapshotFileTest, LatestRecordPerGroupWins) {
  const std::string path = TempPath("latest");
  const RunDigest digest = TestDigest(2);
  auto file = SnapshotFile::Open(path, digest.bytes).value();
  ASSERT_TRUE(file.Save(0, 1, {}, std::vector<unsigned char>{1}).ok());
  ASSERT_TRUE(file.Save(0, 2, {}, std::vector<unsigned char>{2}).ok());
  ASSERT_TRUE(file.Close().ok());
  auto reopened = SnapshotFile::Open(path, digest.bytes).value();
  const auto group = reopened.Load(0);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->chunks_done, 2u);
  EXPECT_EQ(group->acc_state, std::vector<unsigned char>{2});
  ASSERT_TRUE(SnapshotFile::Remove(path).ok());
}

TEST(SnapshotFileTest, TornTailKeepsEarlierRecords) {
  const std::string path = TempPath("torn");
  const RunDigest digest = TestDigest(3);
  auto file = SnapshotFile::Open(path, digest.bytes).value();
  ASSERT_TRUE(file.Save(0, 4, {}, std::vector<unsigned char>{9, 9}).ok());
  ASSERT_TRUE(file.Close().ok());
  {
    // A crash mid-append: garbage where the next record frame would be.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = "\x40\x00\x00\x00\xde\xad";
    out.write(torn, sizeof(torn) - 1);
  }
  auto reopened = SnapshotFile::Open(path, digest.bytes).value();
  EXPECT_TRUE(reopened.resumed());
  const auto group = reopened.Load(0);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->chunks_done, 4u);
  ASSERT_TRUE(SnapshotFile::Remove(path).ok());
}

TEST(SnapshotFileTest, DigestMismatchIsInvalidArgument) {
  const std::string path = TempPath("digest");
  auto file = SnapshotFile::Open(path, TestDigest(4).bytes).value();
  ASSERT_TRUE(file.Close().ok());
  const auto reopened = SnapshotFile::Open(path, TestDigest(5).bytes);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(SnapshotFile::Remove(path).ok());
}

TEST(SnapshotFileTest, CorruptHeaderIsDataLoss) {
  const std::string path = TempPath("header");
  auto file = SnapshotFile::Open(path, TestDigest(6).bytes).value();
  ASSERT_TRUE(file.Close().ok());
  {
    std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(2);
    out.put('\x7f');  // Break the magic.
  }
  const auto reopened = SnapshotFile::Open(path, TestDigest(6).bytes);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  ASSERT_TRUE(SnapshotFile::Remove(path).ok());
}

TEST(SnapshotFileTest, RemoveToleratesMissingFile) {
  EXPECT_TRUE(SnapshotFile::Remove(TempPath("never_created")).ok());
}

// ---- Write-path fault injection (common/file_writer.h) ----
//
// A freshly created snapshot spends op 0 on the header write and op 1
// on the compaction fsync; Saves are ops 2, 3, 4, ...; Close's fsync
// is the next op after the last Save.

TEST(SnapshotFileTest, FailedSaveRollsBackAndLaterSavesSurvive) {
  const std::string path = TempPath("save_fault");
  const RunDigest digest = TestDigest(7);
  WriteFaultSchedule faults;
  faults.Add(3, WriteFaultKind::kShortWrite);  // The second Save.
  auto file = SnapshotFile::Open(path, digest.bytes, faults).value();

  ASSERT_TRUE(file.Save(0, 1, {}, std::vector<unsigned char>{10}).ok());
  const Status torn = file.Save(1, 1, {}, std::vector<unsigned char>{11});
  EXPECT_EQ(torn.code(), StatusCode::kResourceExhausted);
  // The rollback is what makes this Save legal: without it the torn
  // record-1 prefix would sit between records 0 and 2, and Open —
  // which stops at the first bad frame — would silently drop record 2.
  ASSERT_TRUE(file.Save(2, 1, {}, std::vector<unsigned char>{12}).ok());
  ASSERT_TRUE(file.Close().ok());

  auto reopened = SnapshotFile::Open(path, digest.bytes).value();
  EXPECT_TRUE(reopened.resumed());
  ASSERT_TRUE(reopened.Load(0).has_value());
  EXPECT_FALSE(reopened.Load(1).has_value());
  const auto group2 = reopened.Load(2);
  ASSERT_TRUE(group2.has_value());
  EXPECT_EQ(group2->acc_state, std::vector<unsigned char>{12});
  ASSERT_TRUE(SnapshotFile::Remove(path).ok());
}

TEST(SnapshotFileTest, OpenCompactionFaultLeavesOriginalIntact) {
  const std::string path = TempPath("open_fault");
  const RunDigest digest = TestDigest(8);
  {
    auto file = SnapshotFile::Open(path, digest.bytes).value();
    ASSERT_TRUE(file.Save(4, 9, {2}, std::vector<unsigned char>{42}).ok());
    ASSERT_TRUE(file.Close().ok());
  }

  // Resume under a disk-full header write: Open fails, but only the
  // .tmp was touched — the original checkpoint was never renamed over.
  WriteFaultSchedule faults;
  faults.Add(0, WriteFaultKind::kNoSpace);
  const auto faulted = SnapshotFile::Open(path, digest.bytes, faults);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kResourceExhausted);

  auto reopened = SnapshotFile::Open(path, digest.bytes).value();
  EXPECT_TRUE(reopened.resumed());
  const auto group = reopened.Load(4);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->chunks_done, 9u);
  EXPECT_EQ(group->quarantined, std::vector<std::size_t>{2});
  ASSERT_TRUE(SnapshotFile::Remove(path).ok());
}

TEST(SnapshotFileTest, CloseFsyncFaultIsDataLossButRecordsRemain) {
  const std::string path = TempPath("close_fault");
  const RunDigest digest = TestDigest(9);
  WriteFaultSchedule faults;
  faults.Add(3, WriteFaultKind::kFsyncFailure);  // Close's fsync.
  auto file = SnapshotFile::Open(path, digest.bytes, faults).value();
  ASSERT_TRUE(file.Save(0, 5, {}, std::vector<unsigned char>{1}).ok());
  EXPECT_EQ(file.Close().code(), StatusCode::kDataLoss);

  // The injected flush failure means durability is unknowable — but the
  // bytes this process wrote are still parseable, so a resume recovers
  // whatever did survive.
  auto reopened = SnapshotFile::Open(path, digest.bytes).value();
  const auto group = reopened.Load(0);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->chunks_done, 5u);
  ASSERT_TRUE(SnapshotFile::Remove(path).ok());
}

// ---- End-to-end checkpoint/resume through the pipelines ----

constexpr std::size_t kUsers = 2 * 4096 + 700;
constexpr std::size_t kDims = 5;

data::Dataset TestDataset() {
  Rng rng(31);
  return data::Generate(
      data::UniformSpec{.num_users = kUsers, .num_dims = kDims},
      &rng).value();
}

mech::MechanismPtr Mech() { return mech::MakeMechanism("piecewise").value(); }

PipelineOptions CheckpointedOptions(const std::string& path) {
  PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 9;
  opts.num_threads = 2;
  opts.checkpoint_path = path;
  return opts;
}

TEST(CheckpointResumeTest, InterruptedRunResumesBitIdentically) {
  const data::Dataset dataset = TestDataset();
  const data::ResidentChunkSource base(&dataset);
  const std::string path = TempPath("resume");

  PipelineOptions opts = CheckpointedOptions(path);
  opts.checkpoint_path.clear();
  const auto clean = RunMeanEstimation(base, Mech(), opts).value();

  // First attempt dies on chunk 1 (persistent fault, no quarantine
  // opt-in) after checkpointing the chunks that did complete.
  data::FaultSchedule schedule;
  schedule.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 1});
  const data::FaultInjectingChunkSource faulty(&base, schedule);
  const auto failed =
      RunMeanEstimation(faulty, Mech(), CheckpointedOptions(path));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);

  // Second attempt (fault repaired) resumes from the checkpoint and
  // matches the uninterrupted run bit for bit — at a different thread
  // count, which the digest deliberately ignores.
  PipelineOptions resume_opts = CheckpointedOptions(path);
  resume_opts.num_threads = 1;
  const auto resumed = RunMeanEstimation(base, Mech(), resume_opts).value();
  EXPECT_TRUE(resumed.outcome.resumed_from_checkpoint);
  EXPECT_EQ(resumed.estimated_mean, clean.estimated_mean);
  EXPECT_EQ(resumed.report_counts, clean.report_counts);

  // The completed run removed its spent checkpoint.
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good());
}

TEST(CheckpointResumeTest, DigestRefusesForeignRun) {
  const data::Dataset dataset = TestDataset();
  const data::ResidentChunkSource base(&dataset);
  const std::string path = TempPath("foreign");

  data::FaultSchedule schedule;
  schedule.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 2});
  const data::FaultInjectingChunkSource faulty(&base, schedule);
  ASSERT_FALSE(
      RunMeanEstimation(faulty, Mech(), CheckpointedOptions(path)).ok());

  // Same checkpoint, different seed: refused, not silently mixed.
  PipelineOptions other = CheckpointedOptions(path);
  other.seed = 10;
  const auto mixed = RunMeanEstimation(base, Mech(), other);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(SnapshotFile::Remove(path).ok());
}

TEST(CheckpointResumeTest, CompletedRunLeavesNoCheckpoint) {
  const data::Dataset dataset = TestDataset();
  const data::ResidentChunkSource base(&dataset);
  const std::string path = TempPath("spent");
  ASSERT_TRUE(
      RunMeanEstimation(base, Mech(), CheckpointedOptions(path)).ok());
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good());
}

TEST(CheckpointResumeTest, FreqInterruptedRunResumesBitIdentically) {
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>(3, 4)).value();
  Rng rng(22);
  const auto dataset =
      freq::GenerateCategorical(kUsers, schema, 1.0, &rng).value();
  const freq::CategoricalChunkSource base(&dataset);
  data::FaultSchedule schedule;
  schedule.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 2});
  const data::FaultInjectingChunkSource faulty(&base, schedule);

  // The numeric path and both frequency oracles checkpoint through the
  // same reduction.
  for (const ReportEncoding encoding :
       {ReportEncoding::kDense, ReportEncoding::kOue, ReportEncoding::kOlh}) {
    SCOPED_TRACE(ReportEncodingName(encoding));
    const bool oracle = encoding != ReportEncoding::kDense;
    const mech::MechanismPtr mechanism = oracle ? nullptr : Mech();
    const std::string path =
        TempPath(std::string("freq_resume_") + ReportEncodingName(encoding));
    freq::FrequencyOptions opts;
    opts.total_epsilon = 2.0;
    opts.seed = 4;
    opts.num_threads = 2;
    opts.encoding = encoding;
    if (oracle) opts.report_dims = 2;
    const auto clean =
        freq::RunFrequencyEstimation(base, schema, mechanism, opts).value();

    freq::FrequencyOptions ck_opts = opts;
    ck_opts.checkpoint_path = path;
    ASSERT_FALSE(
        freq::RunFrequencyEstimation(faulty, schema, mechanism, ck_opts).ok());

    const auto resumed =
        freq::RunFrequencyEstimation(base, schema, mechanism, ck_opts).value();
    EXPECT_TRUE(resumed.outcome.resumed_from_checkpoint);
    EXPECT_EQ(resumed.raw, clean.raw);
    EXPECT_EQ(resumed.recalibrated, clean.recalibrated);
    EXPECT_EQ(resumed.true_frequencies, clean.true_frequencies);
  }
}

// A transient fault on chunk 0 only: one failed pull, then clean ones.
data::FaultSchedule TransientChunkZero() {
  data::FaultSchedule schedule;
  schedule.Add({.kind = data::FaultSpec::Kind::kTransient,
                .chunk = 0,
                .failing_attempts = 1});
  return schedule;
}

TEST(CheckpointResumeTest, MeanResumeRetriesReferencePasses) {
  // The slice keeps no truth of its own, so the resumed run's ground
  // truth pulls chunk 0 — which it took from its checkpoint — through
  // the flaky injector. That pull must retry under the run's policy.
  const data::Dataset dataset = TestDataset();
  const data::ResidentChunkSource base(&dataset);
  const std::string path = TempPath("mean_resume_retry");

  PipelineOptions opts = CheckpointedOptions(path);
  opts.checkpoint_path.clear();
  const auto clean = RunMeanEstimation(base, Mech(), opts).value();

  data::FaultSchedule crash;
  crash.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 2});
  const data::FaultInjectingChunkSource crashing(&base, crash);
  const data::SlicedChunkSource crashing_slice(&crashing, 0, kUsers);
  ASSERT_FALSE(
      RunMeanEstimation(crashing_slice, Mech(), CheckpointedOptions(path))
          .ok());

  const data::FaultInjectingChunkSource flaky(&base, TransientChunkZero());
  const data::SlicedChunkSource flaky_slice(&flaky, 0, kUsers);
  PipelineOptions resume_opts = CheckpointedOptions(path);
  resume_opts.retry.max_attempts = 2;
  const auto resumed = RunMeanEstimation(flaky_slice, Mech(), resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed.value().outcome.resumed_from_checkpoint);
  EXPECT_EQ(flaky.attempts(0), 2u);
  EXPECT_EQ(resumed.value().estimated_mean, clean.estimated_mean);
  EXPECT_EQ(resumed.value().true_mean, clean.true_mean);
  EXPECT_EQ(resumed.value().mse, clean.mse);
}

TEST(CheckpointResumeTest, FreqResumeRetriesReferencePasses) {
  // The resumed run takes chunk 0 from its checkpoint, so the first pull
  // of chunk 0 — the one the transient fault fails — is the ground-truth
  // pass's. It must retry under the run's policy like the estimate pass.
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>(3, 4)).value();
  Rng rng(23);
  const auto dataset =
      freq::GenerateCategorical(kUsers, schema, 1.0, &rng).value();
  const freq::CategoricalChunkSource base(&dataset);
  const std::string path = TempPath("freq_resume_retry");

  freq::FrequencyOptions opts;
  opts.total_epsilon = 2.0;
  opts.seed = 6;
  opts.num_threads = 2;
  const auto clean =
      freq::RunFrequencyEstimation(base, schema, Mech(), opts).value();

  data::FaultSchedule crash;
  crash.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 2});
  const data::FaultInjectingChunkSource crashing(&base, crash);
  freq::FrequencyOptions ck_opts = opts;
  ck_opts.checkpoint_path = path;
  ASSERT_FALSE(
      freq::RunFrequencyEstimation(crashing, schema, Mech(), ck_opts).ok());

  const data::FaultInjectingChunkSource flaky(&base, TransientChunkZero());
  ck_opts.retry.max_attempts = 2;
  const auto resumed =
      freq::RunFrequencyEstimation(flaky, schema, Mech(), ck_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed.value().outcome.resumed_from_checkpoint);
  EXPECT_EQ(flaky.attempts(0), 2u);
  EXPECT_EQ(resumed.value().raw, clean.raw);
  EXPECT_EQ(resumed.value().recalibrated, clean.recalibrated);
  EXPECT_EQ(resumed.value().true_frequencies, clean.true_frequencies);
}

TEST(CheckpointResumeTest, VarianceResumeRetriesReferencePasses) {
  // Five chunks: the values half holds base chunks 0-2, the squares half
  // base chunks 2-4. Run 1 dies on base chunk 2 in the values half after
  // checkpointing its chunks 0 and 1, so in the resumed run chunk 0 is
  // first pulled by the HDR4ME marginal pass, then by the truth pass.
  Rng rng(32);
  const data::Dataset dataset =
      data::Generate(data::UniformSpec{.num_users = 5 * 4096, .num_dims = 4},
                     &rng)
          .value();
  const data::ResidentChunkSource base(&dataset);
  const std::string path = TempPath("variance_resume_retry");

  hdr4me::VarianceOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 8;
  opts.recalibrate = true;
  const auto clean = hdr4me::RunVarianceEstimation(base, Mech(), opts).value();

  data::FaultSchedule crash;
  crash.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = 2});
  const data::FaultInjectingChunkSource crashing(&base, crash);
  hdr4me::VarianceOptions ck_opts = opts;
  ck_opts.checkpoint_path = path;
  ASSERT_FALSE(hdr4me::RunVarianceEstimation(crashing, Mech(), ck_opts).ok());

  const data::FaultInjectingChunkSource flaky(&base, TransientChunkZero());
  ck_opts.retry.max_attempts = 2;
  const auto resumed = hdr4me::RunVarianceEstimation(flaky, Mech(), ck_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed.value().values.resumed_from_checkpoint);
  EXPECT_EQ(flaky.attempts(0), 4u);  // Marginals: 2 pulls; truth: 2 passes.
  EXPECT_EQ(resumed.value().estimated_variance, clean.estimated_variance);
  EXPECT_EQ(resumed.value().true_variance, clean.true_variance);
}

// Every chunk quarantined: whichever statistic and encoding, the run
// has no user to estimate from. It is refused with FailedPrecondition,
// and the checkpoint its reduction opened is gone.
TEST(CheckpointResumeTest, EveryChunkQuarantinedIsRefusedLeavingNoCheckpoint) {
  const data::Dataset dataset = TestDataset();
  const data::ResidentChunkSource base(&dataset);
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>(3, 4)).value();
  Rng rng(24);
  const auto categorical =
      freq::GenerateCategorical(kUsers, schema, 1.0, &rng).value();
  const freq::CategoricalChunkSource categorical_base(&categorical);
  data::FaultSchedule every_chunk;
  for (std::size_t c = 0; c < base.num_chunks(); ++c) {
    every_chunk.Add({.kind = data::FaultSpec::Kind::kPersistent, .chunk = c});
  }
  const data::FaultInjectingChunkSource faulty(&base, every_chunk);
  const data::FaultInjectingChunkSource faulty_categorical(&categorical_base,
                                                           every_chunk);

  const auto mean = [&](ReportEncoding encoding) {
    return [&, encoding](const std::string& path) {
      PipelineOptions opts = CheckpointedOptions(path);
      opts.allow_missing_chunks = true;
      opts.encoding = encoding;
      return RunMeanEstimation(faulty, Mech(), opts).status();
    };
  };
  const auto frequency = [&](ReportEncoding encoding) {
    return [&, encoding](const std::string& path) {
      freq::FrequencyOptions opts;
      opts.seed = 4;
      opts.num_threads = 2;
      opts.allow_missing_chunks = true;
      opts.checkpoint_path = path;
      opts.encoding = encoding;
      const mech::MechanismPtr mechanism =
          encoding == ReportEncoding::kDense ? Mech() : nullptr;
      return freq::RunFrequencyEstimation(faulty_categorical, schema,
                                          mechanism, opts)
          .status();
    };
  };
  const auto variance = [&](const std::string& path) {
    hdr4me::VarianceOptions opts;
    opts.seed = 8;
    opts.allow_missing_chunks = true;
    opts.checkpoint_path = path;
    return hdr4me::RunVarianceEstimation(faulty, Mech(), opts).status();
  };
  const struct {
    const char* name;
    std::function<Status(const std::string&)> run;
  } rows[] = {
      {"mean_dense", mean(ReportEncoding::kDense)},
      {"mean_hadamard1", mean(ReportEncoding::kHadamard1)},
      {"freq_dense", frequency(ReportEncoding::kDense)},
      {"freq_oue", frequency(ReportEncoding::kOue)},
      {"variance", variance},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    const std::string path =
        TempPath(std::string("every_chunk_quarantined_") + row.name);
    const Status status = row.run(path);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
    // Variance checkpoints its halves beside the path.
    for (const char* suffix : {"", ".values", ".squares"}) {
      EXPECT_FALSE(std::ifstream(path + suffix).good()) << suffix;
    }
  }
}

}  // namespace
}  // namespace protocol
}  // namespace hdldp
