// Tests of the fault-tolerance stack: deterministic fault injection
// (data/fault_injection.h), the retry/backoff of data::PullChunk, the
// engine's quarantine (engine/reduce.h), and their end-to-end contract —
// a run whose transient faults are all recovered is bit-identical to a
// fault-free run, at every thread count.

#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generators.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace data {
namespace {

// Three chunks: two full (4096 users) plus one partial tail.
constexpr std::size_t kUsers = 2 * 4096 + 1000;
constexpr std::size_t kDims = 6;

Dataset TestDataset() {
  Rng rng(77);
  return Generate(UniformSpec{.num_users = kUsers, .num_dims = kDims},
                  &rng).value();
}

protocol::PipelineOptions BaseOptions() {
  protocol::PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 5;
  opts.num_threads = 2;
  return opts;
}

mech::MechanismPtr Mech() { return mech::MakeMechanism("piecewise").value(); }

TEST(FaultScheduleTest, RandomIsDeterministic) {
  FaultSchedule::RandomOptions opts;
  opts.transient_rate = 0.3;
  opts.persistent_rate = 0.1;
  opts.bit_flip_rate = 0.1;
  const FaultSchedule a = FaultSchedule::Random(42, 1000, opts);
  const FaultSchedule b = FaultSchedule::Random(42, 1000, opts);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.FaultedChunks(), b.FaultedChunks());
  for (const std::size_t c : a.FaultedChunks()) {
    ASSERT_NE(b.Find(c), nullptr);
    EXPECT_EQ(static_cast<int>(a.Find(c)->kind),
              static_cast<int>(b.Find(c)->kind));
  }
  // Roughly half the chunks should be faulted at these rates; the exact
  // set is pinned by the seed, not asserted here.
  EXPECT_GT(a.size(), 300u);
  EXPECT_LT(a.size(), 700u);
}

TEST(FaultScheduleTest, RateOneFaultsEveryChunk) {
  FaultSchedule::RandomOptions opts;
  opts.transient_rate = 1.0;
  const FaultSchedule schedule = FaultSchedule::Random(1, 64, opts);
  EXPECT_EQ(schedule.size(), 64u);
}

TEST(FaultInjectionTest, TransientFaultFailsThenSucceeds) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 1,
                .failing_attempts = 2});
  const FaultInjectingChunkSource source(&base, schedule);
  ChunkBuffer buffer;
  EXPECT_EQ(source.Chunk(1, &buffer).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(source.Chunk(1, &buffer).status().code(),
            StatusCode::kUnavailable);
  const auto rows = source.Chunk(1, &buffer);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(source.attempts(1), 3u);
  // Unfaulted chunks pass straight through.
  EXPECT_TRUE(source.Chunk(0, &buffer).ok());
}

TEST(FaultInjectionTest, PersistentFaultAlwaysFailsNamingTheChunk) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 2});
  const FaultInjectingChunkSource source(&base, schedule);
  ChunkBuffer buffer;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto rows = source.Chunk(2, &buffer);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(rows.status().message().find("chunk 2"), std::string::npos);
  }
}

TEST(FaultInjectionTest, BitFlipCorruptsExactlyOneByte) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kBitFlip,
                .chunk = 0,
                .byte_offset = 1234,
                .xor_mask = 0x40});
  const FaultInjectingChunkSource source(&base, schedule);
  ChunkBuffer clean_buffer;
  ChunkBuffer flipped_buffer;
  const auto clean = base.Chunk(0, &clean_buffer);
  const auto flipped = source.Chunk(0, &flipped_buffer);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(flipped.ok());
  ASSERT_EQ(clean.value().size(), flipped.value().size());
  std::size_t differing_bytes = 0;
  const auto* a =
      reinterpret_cast<const unsigned char*>(clean.value().data());
  const auto* b =
      reinterpret_cast<const unsigned char*>(flipped.value().data());
  for (std::size_t i = 0; i < clean.value().size() * sizeof(double); ++i) {
    differing_bytes += a[i] != b[i];
  }
  EXPECT_EQ(differing_bytes, 1u);
}

TEST(FaultInjectionTest, TrueMeanBypassesFaults) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 0});
  const FaultInjectingChunkSource source(&base, schedule);
  const auto true_mean = source.TrueMean();
  ASSERT_TRUE(true_mean.ok());
  EXPECT_EQ(true_mean.value(), base.TrueMean().value());
}

TEST(PipelineFaultTest, RecoveredTransientFaultsAreBitIdentical) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  const auto clean =
      protocol::RunMeanEstimation(base, Mech(), BaseOptions()).value();

  FaultSchedule::RandomOptions random;
  random.transient_rate = 0.9;
  random.failing_attempts = 2;
  const FaultInjectingChunkSource faulty(
      &base, FaultSchedule::Random(13, base.num_chunks(), random));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    protocol::PipelineOptions opts = BaseOptions();
    opts.num_threads = threads;
    opts.retry.max_attempts = 3;
    const auto recovered =
        protocol::RunMeanEstimation(faulty, Mech(), opts).value();
    EXPECT_EQ(recovered.estimated_mean, clean.estimated_mean)
        << "threads=" << threads;
    EXPECT_TRUE(recovered.outcome.quarantined_chunks.empty());
    EXPECT_EQ(recovered.outcome.surviving_users, kUsers);
  }
}

TEST(PipelineFaultTest, TransientFaultWithoutRetryIsUnavailable) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 1,
                .failing_attempts = 1});
  const FaultInjectingChunkSource faulty(&base, schedule);
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), BaseOptions());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
}

TEST(PipelineFaultTest, ExhaustedRetriesStillFail) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 0,
                .failing_attempts = 5});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.retry.max_attempts = 3;  // < failing_attempts: still fails.
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
}

TEST(PipelineFaultTest, PersistentFaultFailsCleanlyWithoutOptIn) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 1});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.retry.max_attempts = 3;  // Retries never help a persistent fault.
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(run.status().message().find("chunk 1"), std::string::npos);
}

TEST(PipelineFaultTest, QuarantineSkipsFailingChunksAndReportsThem) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 1});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.allow_missing_chunks = true;
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), opts).value();
  EXPECT_EQ(run.outcome.quarantined_chunks, std::vector<std::size_t>{1});
  EXPECT_EQ(run.outcome.surviving_users, kUsers - base.ChunkUsers(1));
  // The estimate covers surviving users only: report counts must sum to
  // surviving_users per dimension (m == d, every survivor reports all).
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(run.report_counts[j],
              static_cast<std::int64_t>(run.outcome.surviving_users));
  }
}

TEST(PipelineFaultTest, QuarantinedEstimateMatchesSurvivorsOnlyRun) {
  // Quarantining chunk 2 (the tail) must produce the exact estimate of
  // running the protocol over chunks 0..1 alone: quarantine is a skip,
  // not a rescale-after-the-fact.
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 2});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.allow_missing_chunks = true;
  const auto quarantined =
      protocol::RunMeanEstimation(faulty, Mech(), opts).value();

  const SlicedChunkSource survivors(&base, 0, 2 * 4096);
  const auto direct =
      protocol::RunMeanEstimation(survivors, Mech(), BaseOptions()).value();
  EXPECT_EQ(quarantined.estimated_mean, direct.estimated_mean);
  // ... and it is scored against those same users.
  EXPECT_EQ(quarantined.true_mean, direct.true_mean);
  EXPECT_EQ(quarantined.mse, direct.mse);
}

TEST(RetryPolicyTest, BackoffSequenceIsExponential) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 0,
                .failing_attempts = 3});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.num_threads = 1;
  opts.retry.max_attempts = 4;
  opts.retry.initial_backoff_ms = 10;
  std::mutex mu;
  std::vector<std::uint64_t> backoffs;
  opts.retry.sleep = [&](std::uint64_t ms) {
    const std::lock_guard<std::mutex> lock(mu);
    backoffs.push_back(ms);
  };
  ASSERT_TRUE(protocol::RunMeanEstimation(faulty, Mech(), opts).ok());
  EXPECT_EQ(backoffs, (std::vector<std::uint64_t>{10, 20, 40}));
}

TEST(RetryPolicyTest, BackoffSaturatesInsteadOfWrapping) {
  // The ladder doubles until the largest std::chrono::milliseconds count
  // and stays there, where a plain shift would wrap past 63 bits.
  constexpr std::uint64_t kCap = (std::uint64_t{1} << 63) - 1;
  const auto ladder = [](std::uint64_t base, int failing_attempts) {
    const Dataset dataset = TestDataset();
    const ResidentChunkSource base_source(&dataset);
    FaultSchedule schedule;
    schedule.Add({.kind = FaultSpec::Kind::kTransient,
                  .chunk = 0,
                  .failing_attempts = failing_attempts});
    const FaultInjectingChunkSource faulty(&base_source, schedule);
    protocol::PipelineOptions opts = BaseOptions();
    opts.num_threads = 1;
    opts.retry.max_attempts = failing_attempts + 1;
    opts.retry.initial_backoff_ms = base;
    std::vector<std::uint64_t> backoffs;
    opts.retry.sleep = [&](std::uint64_t ms) { backoffs.push_back(ms); };
    EXPECT_TRUE(protocol::RunMeanEstimation(faulty, Mech(), opts).ok());
    return backoffs;
  };
  std::vector<std::uint64_t> expected;
  for (int k = 0; k < 69; ++k) {
    expected.push_back(k < 63 ? std::uint64_t{1} << k : kCap);
  }
  EXPECT_EQ(ladder(1, 69), expected);
  EXPECT_EQ(ladder(std::uint64_t{1} << 62, 3),
            (std::vector<std::uint64_t>{std::uint64_t{1} << 62, kCap, kCap}));
  EXPECT_EQ(ladder(~std::uint64_t{0}, 2),
            (std::vector<std::uint64_t>{kCap, kCap}));
}

TEST(RetryPolicyTest, WallClockDeadlineCutsTheLadderShort) {
  // A persistent outage with a generous attempt budget: the wall-clock
  // deadline, not max_attempts, must be what stops the retry ladder.
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 0,
                .failing_attempts = 10});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.num_threads = 1;
  opts.retry.max_attempts = 8;
  opts.retry.initial_backoff_ms = 10;
  opts.retry.max_total_backoff_ms = 50;
  // Deterministic time: the injected clock advances only when the
  // injected sleep runs, so the deadline math is exact.
  std::uint64_t fake_now = 0;
  std::vector<std::uint64_t> backoffs;
  opts.retry.now_ms = [&] { return fake_now; };
  opts.retry.sleep = [&](std::uint64_t ms) {
    backoffs.push_back(ms);
    fake_now += ms;
  };
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
  // The deadline armed at the first failure (t=0); after backoffs
  // 10+20+40 the clock reads 70 >= 50, so attempt 5 is never scheduled
  // even though max_attempts would allow four more.
  EXPECT_EQ(backoffs, (std::vector<std::uint64_t>{10, 20, 40}));
  EXPECT_EQ(faulty.attempts(0), 4u);
}

TEST(RetryPolicyTest, RecoveryWithinDeadlineStaysBitIdentical) {
  // The deadline only cuts the ladder short — a fault that clears
  // before the budget runs out must still recover bit-identically.
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  const auto clean =
      protocol::RunMeanEstimation(base, Mech(), BaseOptions()).value();

  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 0,
                .failing_attempts = 3});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.num_threads = 1;
  opts.retry.max_attempts = 8;
  opts.retry.initial_backoff_ms = 10;
  opts.retry.max_total_backoff_ms = 50;
  std::uint64_t fake_now = 0;
  opts.retry.now_ms = [&] { return fake_now; };
  opts.retry.sleep = [&](std::uint64_t ms) { fake_now += ms; };
  const auto recovered =
      protocol::RunMeanEstimation(faulty, Mech(), opts).value();
  EXPECT_EQ(recovered.estimated_mean, clean.estimated_mean);
  EXPECT_TRUE(recovered.outcome.quarantined_chunks.empty());
}

}  // namespace
}  // namespace data
}  // namespace hdldp
