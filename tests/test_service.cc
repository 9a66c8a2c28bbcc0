// Tests for the online aggregation service: ingestion queue semantics,
// counted load shedding (reconciliation is exact, degradation is never
// silent), idempotent dedup, order-invariant budget enforcement,
// worker-count-invariant published estimates, fault-injected report
// streams, and crash-safe snapshot/restore (kill-and-restore republishes
// bit-identical estimates at 1 and 4 workers).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"
#include "data/fault_injection.h"
#include "freq/encoding.h"
#include "mech/registry.h"
#include "protocol/wire.h"
#include "service/aggregation_service.h"
#include "service/report_stream.h"
#include "service/seq_interval_set.h"
#include "service/window.h"

namespace hdldp {
namespace service {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "hdldp_service_" + name;
  std::remove(path.c_str());
  return path;
}

// One wire-format envelope carrying a hand-built two-entry report whose
// values encode (tenant, seq) — so any difference in the accepted set
// shows up in the published estimate bits.
std::vector<std::uint8_t> MakeEnvelope(std::uint64_t tenant,
                                       std::uint64_t seq, std::uint64_t tick,
                                       double value) {
  protocol::UserReport report;
  report.entries.push_back(
      protocol::DimensionReport{0, value});
  report.entries.push_back(
      protocol::DimensionReport{1, -0.5 * value});
  protocol::ReportEnvelope envelope;
  envelope.tenant = tenant;
  envelope.sequence = seq;
  envelope.tick = tick;
  envelope.payload = protocol::EncodeReport(report).value();
  return protocol::EncodeEnvelope(envelope);
}

ServiceOptions ManualOptions(std::size_t num_dims = 2) {
  ServiceOptions options;
  options.num_dims = num_dims;
  return options;
}

// Drive counts shed and malformed envelopes rather than failing on
// them; a clean blocking run has neither.
void ExpectNoneShedOrMalformed(const AggregationService& service) {
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed_queue_full, 0u);
  EXPECT_EQ(stats.rejected_malformed, 0u);
}

void ExpectSameWindows(const std::vector<PublishedWindow>& a,
                       const std::vector<PublishedWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].report_count, b[i].report_count);
    ASSERT_EQ(a[i].estimate.size(), b[i].estimate.size());
    EXPECT_EQ(0, std::memcmp(a[i].estimate.data(), b[i].estimate.data(),
                             a[i].estimate.size() * sizeof(double)))
        << "window " << a[i].index << " estimates differ bitwise";
  }
}

void ExpectSameStats(const ServiceStats& a, const ServiceStats& b) {
  for (const ServiceCounter& counter : kServiceCounters) {
    EXPECT_EQ(a.*counter.field, b.*counter.field) << counter.name;
  }
  EXPECT_EQ(a.degraded, b.degraded);
}

// Drains everything queued, releases it at once, and returns it.
std::vector<int> DrainAndRelease(BoundedQueue<int>* queue) {
  std::vector<int> batch;
  EXPECT_TRUE(queue->PopAll(&batch));
  queue->Release(batch.size());
  return batch;
}

TEST(BoundedQueueTest, TryPushShedsWhenFullAndRecoversAfterPop) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  int shed = 3;
  EXPECT_FALSE(queue.TryPush(std::move(shed)));
  EXPECT_EQ(DrainAndRelease(&queue), (std::vector<int>{1, 2}));
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_EQ(DrainAndRelease(&queue), (std::vector<int>{3}));
}

TEST(BoundedQueueTest, CloseIsFlushBarrierNotAbort) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  queue.Close();
  int late = 3;
  EXPECT_FALSE(queue.TryPush(std::move(late)));
  EXPECT_FALSE(queue.Push(std::move(late)));
  // The backlog drains before the closed, empty queue reports false.
  EXPECT_EQ(DrainAndRelease(&queue), (std::vector<int>{1, 2}));
  std::vector<int> batch;
  EXPECT_FALSE(queue.PopAll(&batch));
  EXPECT_TRUE(batch.empty());
}

TEST(BoundedQueueTest, BlockingPushWaitsForConsumer) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.TryPush(1));
  std::thread producer([&queue] {
    EXPECT_TRUE(queue.Push(2));  // blocks until the release below
  });
  EXPECT_EQ(DrainAndRelease(&queue), (std::vector<int>{1}));
  EXPECT_EQ(DrainAndRelease(&queue), (std::vector<int>{2}));
  producer.join();
}

TEST(BoundedQueueTest, HeldBatchCountsAgainstCapacityUntilReleased) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  std::vector<int> batch;
  ASSERT_TRUE(queue.PopAll(&batch));
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.size(), 0u);
  // Nothing is queued, but the held batch still fills the capacity: a
  // batch drain must not double what the queue admits.
  int shed = 3;
  EXPECT_FALSE(queue.TryPush(std::move(shed)));
  std::atomic<bool> pushed{false};
  std::thread producer([&queue, &pushed] {
    EXPECT_TRUE(queue.Push(3));  // blocks until the release below
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  queue.Release(1);  // one slot opens: the blocked push lands
  producer.join();
  EXPECT_TRUE(pushed.load());
  int over = 4;
  EXPECT_FALSE(queue.TryPush(std::move(over)));  // 1 held + 1 queued
  queue.Release(1);
  EXPECT_TRUE(queue.TryPush(4));
  EXPECT_EQ(DrainAndRelease(&queue), (std::vector<int>{3, 4}));
}

TEST(BoundedQueueTest, CloseFlushesItemsQueuedBehindAHeldBatch) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  std::vector<int> held;
  ASSERT_TRUE(queue.PopAll(&held));
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_TRUE(queue.TryPush(4));
  queue.Close();
  int late = 5;
  EXPECT_FALSE(queue.TryPush(std::move(late)));
  // The held batch is still unreleased; the items behind it drain anyway.
  std::vector<int> rest;
  ASSERT_TRUE(queue.PopAll(&rest));
  EXPECT_EQ(rest, (std::vector<int>{3, 4}));
  queue.Release(held.size() + rest.size());
  rest.clear();
  EXPECT_FALSE(queue.PopAll(&rest));
}

TEST(ReportFaultScheduleTest, FateIsPureAndPullOrderInvariant) {
  data::ReportFaultSchedule::Options options;
  options.drop_rate = 0.1;
  options.duplicate_rate = 0.1;
  options.reorder_rate = 0.2;
  options.reorder_delay = 5;
  const data::ReportFaultSchedule schedule(42, options);
  ASSERT_TRUE(schedule.active());
  std::vector<data::ReportFate> forward;
  for (std::uint64_t i = 0; i < 1000; ++i) forward.push_back(schedule.Fate(i));
  bool any_drop = false, any_dup = false, any_reorder = false;
  for (std::uint64_t i = 1000; i-- > 0;) {
    const data::ReportFate fate = schedule.Fate(i);  // reverse pull order
    EXPECT_EQ(fate.drop, forward[i].drop);
    EXPECT_EQ(fate.duplicates, forward[i].duplicates);
    EXPECT_EQ(fate.reorder_delay, forward[i].reorder_delay);
    any_drop |= fate.drop;
    any_dup |= fate.duplicates > 0;
    any_reorder |= fate.reorder_delay > 0;
  }
  EXPECT_TRUE(any_drop);
  EXPECT_TRUE(any_dup);
  EXPECT_TRUE(any_reorder);
  EXPECT_FALSE(
      data::ReportFaultSchedule(42, data::ReportFaultSchedule::Options{})
          .active());
}

TEST(ReportStreamTest, StreamIsDeterministicInItsOptions) {
  ReportStreamOptions options;
  options.num_reports = 200;
  options.num_dims = 4;
  options.report_dims = 2;
  options.num_tenants = 3;
  options.seed = 9;
  options.faults.drop_rate = 0.05;
  options.faults.duplicate_rate = 0.05;
  options.faults.reorder_rate = 0.1;
  auto a = ReportStream::Create(options).value();
  auto b = ReportStream::Create(options).value();
  std::vector<std::uint8_t> ea, eb;
  for (;;) {
    bool da = false, db = false;
    ASSERT_TRUE(a.Next(&ea, &da).ok());
    ASSERT_TRUE(b.Next(&eb, &db).ok());
    ASSERT_EQ(da, db);
    if (da) break;
    EXPECT_EQ(ea, eb);
  }
  EXPECT_EQ(a.position(), b.position());
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_EQ(a.duplicated(), b.duplicated());
  EXPECT_EQ(a.reordered(), b.reordered());
}

TEST(ReportStreamTest, SkipToReplaysTheExactSuffix) {
  ReportStreamOptions options;
  options.num_reports = 300;
  options.num_dims = 3;
  options.num_tenants = 2;
  options.seed = 17;
  options.faults.duplicate_rate = 0.1;
  options.faults.reorder_rate = 0.2;
  auto full = ReportStream::Create(options).value();
  std::vector<std::uint8_t> envelope;
  std::vector<std::vector<std::uint8_t>> tail;
  bool done = false;
  while (!done) {
    ASSERT_TRUE(full.Next(&envelope, &done).ok());
    if (!done && full.position() > 120) tail.push_back(envelope);
  }
  auto resumed = ReportStream::Create(options).value();
  ASSERT_TRUE(resumed.SkipTo(120).ok());
  EXPECT_EQ(resumed.position(), 120u);
  for (const auto& expected : tail) {
    done = false;
    ASSERT_TRUE(resumed.Next(&envelope, &done).ok());
    ASSERT_FALSE(done);
    EXPECT_EQ(envelope, expected);
  }
  ASSERT_TRUE(resumed.Next(&envelope, &done).ok());
  EXPECT_TRUE(done);
  // Rewinding is a typed error, not silent corruption.
  EXPECT_EQ(resumed.SkipTo(0).code(), StatusCode::kInvalidArgument);
}

TEST(ReportStreamTest, MakeServiceOptionsWiresGeometryCodecAndDigestTag) {
  ReportStreamOptions options;
  options.workload = protocol::Workload::kFrequency;
  options.encoding = protocol::ReportEncoding::kOlh;
  options.num_reports = 1000;
  options.num_dims = 4;
  options.num_categories = 3;
  options.epsilon = 2.5;
  options.report_dims = 2;
  options.seed = 5;
  options.num_tenants = 3;
  options.reports_per_tick = 100;
  options.faults.drop_rate = 0.01;
  options.faults.duplicate_rate = 0.02;
  options.faults.reorder_rate = 0.1;
  options.faults.reorder_delay = 3;
  options.fault_seed = 9;
  const auto stream = ReportStream::Create(options).value();
  ServiceOptions base;
  base.num_workers = 3;
  base.checkpoint_path = "kept";
  const ServiceOptions wired = stream.MakeServiceOptions(base);
  // Checkpoints written before the stream owned this wiring carry this
  // exact tag; it must not drift.
  EXPECT_EQ(wired.digest_tag,
            "stream freq enc=olh duchi n=1000 eps=2.5 m=2 seed=5 t=3 rpt=100 "
            "drop=0.01 dup=0.02 reord=0.10000000000000001 delay=3 fseed=9");
  EXPECT_EQ(wired.num_dims, 12u);  // q * c one-hot entries
  EXPECT_EQ(wired.expected_entries, 6u);
  const auto olh = freq::OlhParams::FromEpsilon(2.5 / 2).value();
  EXPECT_EQ(wired.output_lo, olh.EntryValue(false));
  EXPECT_EQ(wired.output_hi, olh.EntryValue(true));
  EXPECT_EQ(wired.codec.encoding, protocol::ReportEncoding::kOlh);
  EXPECT_EQ(wired.codec.report_dims, 2u);
  EXPECT_EQ(wired.codec.num_questions, 4u);
  EXPECT_EQ(wired.codec.num_categories, 3u);
  EXPECT_EQ(wired.num_workers, 3u);
  EXPECT_EQ(wired.checkpoint_path, "kept");
}

TEST(ReportStreamTest, DriveSnapshotsStopsAndResumesFromTheLastSnapshot) {
  ReportStreamOptions stream_options;
  stream_options.num_reports = 800;
  stream_options.num_dims = 4;
  stream_options.report_dims = 2;
  stream_options.num_tenants = 3;
  stream_options.seed = 19;
  stream_options.reports_per_tick = 100;
  stream_options.faults.duplicate_rate = 0.05;
  stream_options.faults.reorder_rate = 0.1;
  auto ref_stream = ReportStream::Create(stream_options).value();
  ServiceOptions options = ref_stream.MakeServiceOptions();
  options.window.width = 2;
  options.window.lateness = 1;
  options.overload = OverloadPolicy::kBlock;
  auto reference = AggregationService::Create(options).value();
  ASSERT_EQ(Drive(&ref_stream, reference.get()).value(), DriveEnd::kDrained);

  // Snapshots at 200 and 400, then the crash at 500: the restore
  // resumes from 400, and the drive of a fresh stream replays from there.
  ServiceOptions crashed = options;
  crashed.checkpoint_path = TempPath("drive_contract");
  auto first = AggregationService::Create(crashed).value();
  auto stream = ReportStream::Create(stream_options).value();
  ASSERT_EQ(Drive(&stream, first.get(), {.snapshot_every = 200,
                                        .stop_at = 500})
                .value(),
            DriveEnd::kStopped);
  EXPECT_EQ(stream.position(), 500u);
  first.reset();
  auto restored = AggregationService::Create(crashed).value();
  ASSERT_TRUE(restored->resumed());
  EXPECT_EQ(restored->resume_cursor(), 400u);
  auto fresh_stream = ReportStream::Create(stream_options).value();
  ASSERT_EQ(Drive(&fresh_stream, restored.get()).value(), DriveEnd::kDrained);
  ASSERT_TRUE(restored->VerifyReconciliation().ok());
  ExpectSameStats(reference->Stats(), restored->Stats());
  ExpectSameWindows(reference->PublishedWindows(),
                    restored->PublishedWindows());
  ASSERT_TRUE(restored->Finish().ok());

  // With no checkpoint to write, the first snapshot ends the drive.
  auto unsaved = AggregationService::Create(options).value();
  auto unsaved_stream = ReportStream::Create(stream_options).value();
  EXPECT_EQ(Drive(&unsaved_stream, unsaved.get(), {.snapshot_every = 200})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(unsaved_stream.position(), 200u);
}

TEST(ServiceTest, ReplayPublishesRollingWindowsAndReconciles) {
  ReportStreamOptions stream_options;
  stream_options.num_reports = 600;
  stream_options.num_dims = 4;
  stream_options.report_dims = 2;
  stream_options.num_tenants = 3;
  stream_options.seed = 5;
  stream_options.reports_per_tick = 100;
  auto stream = ReportStream::Create(stream_options).value();
  ServiceOptions options = stream.MakeServiceOptions();
  options.window.width = 2;
  auto service = AggregationService::Create(options).value();
  ASSERT_TRUE(Drive(&stream, service.get()).ok());
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, 600u);
  EXPECT_EQ(stats.accepted, 600u);
  EXPECT_EQ(stats.published_windows, 3u);
  EXPECT_EQ(stats.published_reports, 600u);
  ASSERT_TRUE(service->VerifyReconciliation().ok());
  const auto windows = service->PublishedWindows();
  ASSERT_EQ(windows.size(), 3u);
  for (const PublishedWindow& w : windows) {
    EXPECT_EQ(w.report_count, 200u);
    EXPECT_EQ(w.estimate.size(), 4u);
  }
}

TEST(ServiceTest, ConcurrentBlockingIngestMatchesReplayBitForBit) {
  ReportStreamOptions stream_options;
  stream_options.workload = protocol::Workload::kFrequency;
  stream_options.mechanism = "piecewise";
  stream_options.num_reports = 800;
  stream_options.num_dims = 4;  // questions
  stream_options.num_categories = 3;
  stream_options.report_dims = 2;
  stream_options.epsilon = 2.0;
  stream_options.num_tenants = 5;
  stream_options.seed = 31;
  stream_options.reports_per_tick = 200;

  auto replay_stream = ReportStream::Create(stream_options).value();
  ServiceOptions replay_options = replay_stream.MakeServiceOptions();
  replay_options.window.width = 1;
  replay_options.num_workers = 1;
  replay_options.overload = OverloadPolicy::kBlock;
  auto replay = AggregationService::Create(replay_options).value();
  ASSERT_TRUE(Drive(&replay_stream, replay.get()).ok());

  auto serve_stream = ReportStream::Create(stream_options).value();
  ServiceOptions serve_options = serve_stream.MakeServiceOptions();
  serve_options.window.width = 1;
  serve_options.num_workers = 4;
  serve_options.overload = OverloadPolicy::kBlock;
  serve_options.queue_capacity = 16;  // force real backpressure
  auto serve = AggregationService::Create(serve_options).value();
  ASSERT_TRUE(Drive(&serve_stream, serve.get()).ok());

  ASSERT_TRUE(replay->VerifyReconciliation().ok());
  ASSERT_TRUE(serve->VerifyReconciliation().ok());
  ExpectNoneShedOrMalformed(*replay);
  ExpectSameStats(replay->Stats(), serve->Stats());
  ExpectSameWindows(replay->PublishedWindows(), serve->PublishedWindows());
}

TEST(ServiceTest, WorkersPastTheShardGroupCountAreClamped) {
  // Reports route by shard group, so a 65th worker would never receive
  // one: Create runs kNumShardGroups workers instead, and they publish
  // replay's bits.
  ReportStreamOptions stream_options;
  stream_options.num_reports = 2000;
  stream_options.num_dims = 4;
  stream_options.report_dims = 2;
  stream_options.num_tenants = 200;
  stream_options.seed = 61;
  stream_options.reports_per_tick = 250;
  auto replay_stream = ReportStream::Create(stream_options).value();
  ServiceOptions options = replay_stream.MakeServiceOptions();
  options.overload = OverloadPolicy::kBlock;
  auto replay = AggregationService::Create(options).value();
  ASSERT_TRUE(Drive(&replay_stream, replay.get()).ok());
  ExpectNoneShedOrMalformed(*replay);

  options.num_workers = kNumShardGroups + 1;
  auto wide = AggregationService::Create(options).value();
  EXPECT_EQ(wide->num_workers(), kNumShardGroups);
  auto wide_stream = ReportStream::Create(stream_options).value();
  ASSERT_TRUE(Drive(&wide_stream, wide.get()).ok());
  ASSERT_TRUE(wide->VerifyReconciliation().ok());
  ExpectSameStats(replay->Stats(), wide->Stats());
  ExpectSameWindows(replay->PublishedWindows(), wide->PublishedWindows());
}

TEST(ServiceTest, RetransmitsAreDedupedWithoutTouchingEstimates) {
  auto once = AggregationService::Create(ManualOptions()).value();
  auto twice = AggregationService::Create(ManualOptions()).value();
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    const auto envelope = MakeEnvelope(seq % 4, seq, 0, 0.01 * seq);
    ASSERT_TRUE(once->Submit(envelope).ok());
    ASSERT_TRUE(twice->Submit(envelope).ok());
    ASSERT_TRUE(twice->Submit(envelope).ok());  // retransmit
  }
  ASSERT_TRUE(once->Drain().ok());
  ASSERT_TRUE(twice->Drain().ok());
  const ServiceStats stats = twice->Stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.accepted, 50u);
  EXPECT_EQ(stats.deduped, 50u);
  ASSERT_TRUE(twice->VerifyReconciliation().ok());
  ExpectSameWindows(once->PublishedWindows(), twice->PublishedWindows());
}

TEST(ServiceTest, LateReportsAreShedAndCounted) {
  ServiceOptions options = ManualOptions();
  options.window.width = 1;
  auto service = AggregationService::Create(options).value();
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 0, 0, 0.5)).ok());
  ASSERT_TRUE(service->AdvanceWatermark(2).ok());  // seals panes 0 and 1
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 1, 0, 0.7)).ok());  // late
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 2, 2, 0.9)).ok());  // on time
  ASSERT_TRUE(service->Drain().ok());
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.shed_late, 1u);
  ASSERT_TRUE(service->VerifyReconciliation().ok());
  const auto windows = service->PublishedWindows();
  ASSERT_EQ(windows.size(), 3u);  // window 1 publishes empty, not skipped
  EXPECT_EQ(windows[0].report_count, 1u);  // the late retry is NOT in it
  EXPECT_EQ(windows[1].report_count, 0u);
  EXPECT_EQ(windows[2].report_count, 1u);
}

TEST(ServiceTest, LatenessGraceAbsorbsReordering) {
  ServiceOptions options = ManualOptions();
  options.window.width = 1;
  options.window.lateness = 1;
  auto service = AggregationService::Create(options).value();
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 0, 0, 0.5)).ok());
  ASSERT_TRUE(service->AdvanceWatermark(1).ok());  // pane 0 NOT yet sealed
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 1, 0, 0.7)).ok());  // 1 late
  ASSERT_TRUE(service->Drain().ok());
  EXPECT_EQ(service->Stats().shed_late, 0u);
  EXPECT_EQ(service->Stats().accepted, 2u);
  const auto windows = service->PublishedWindows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].report_count, 2u);
}

TEST(ServiceTest, MalformedEnvelopesAreTypedAndCounted) {
  auto service = AggregationService::Create(ManualOptions()).value();
  std::vector<std::uint8_t> corrupt = MakeEnvelope(0, 0, 0, 0.5);
  corrupt[corrupt.size() / 2] ^= 0xFF;  // breaks the CRC frame
  EXPECT_EQ(service->Submit(corrupt).code(), StatusCode::kDataLoss);
  const std::vector<std::uint8_t> truncated{0x01, 0x02};
  EXPECT_EQ(service->Submit(truncated).code(), StatusCode::kDataLoss);
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 0, 0, 0.5)).ok());
  ASSERT_TRUE(service->Drain().ok());
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected_malformed, 2u);
  EXPECT_EQ(stats.accepted, 1u);
  ASSERT_TRUE(service->VerifyReconciliation().ok());
}

TEST(ServiceTest, BudgetRejectionIsTypedCountedAndOrderInvariant) {
  ServiceOptions options = ManualOptions();
  options.tenant_epsilon = 1.0;
  options.per_report_epsilon = 0.25;  // capacity: sequences 0..3
  auto forward = AggregationService::Create(options).value();
  auto reverse = AggregationService::Create(options).value();
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    ASSERT_TRUE(forward->Submit(MakeEnvelope(0, seq, 0, 0.01 * seq)).ok());
    const std::uint64_t rseq = 9 - seq;
    ASSERT_TRUE(reverse->Submit(MakeEnvelope(0, rseq, 0, 0.01 * rseq)).ok());
  }
  ASSERT_TRUE(forward->Drain().ok());
  ASSERT_TRUE(reverse->Drain().ok());
  for (AggregationService* service : {forward.get(), reverse.get()}) {
    const ServiceStats stats = service->Stats();
    EXPECT_EQ(stats.accepted, 4u);
    EXPECT_EQ(stats.rejected_budget, 6u);
    ASSERT_TRUE(service->VerifyReconciliation().ok());
  }
  // The admitted set is seq < capacity regardless of arrival order, so
  // the published estimates agree bit for bit.
  ExpectSameWindows(forward->PublishedWindows(),
                    reverse->PublishedWindows());
}

TEST(ServiceTest, OverloadShedsWithExactReconciliationUnderConcurrency) {
  ServiceOptions options = ManualOptions();
  options.num_workers = 2;
  options.queue_capacity = 4;  // tiny: guarantees real shedding
  options.overload = OverloadPolicy::kShed;
  auto service = AggregationService::Create(options).value();
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const auto envelope =
            MakeEnvelope(/*tenant=*/p * kPerProducer + i, /*seq=*/0,
                         /*tick=*/0, 0.001 * i);
        const Status status = service->Submit(envelope);
        // Under kShed the only admissible failure is typed Unavailable.
        if (!status.ok()) {
          EXPECT_EQ(status.code(), StatusCode::kUnavailable);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(service->Drain().ok());
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_GT(stats.shed_queue_full, 0u);  // the tiny queues really shed
  EXPECT_GT(stats.accepted, 0u);         // and the service still made progress
  ASSERT_TRUE(service->VerifyReconciliation().ok());
  // Everything accepted was published exactly once (tumbling windows).
  EXPECT_EQ(stats.published_reports, stats.accepted);
}

TEST(ServiceTest, FinishRacingProducersReconcilesInBothPolicies) {
  // Producers keep submitting while Finish() closes the queues under
  // them. A report refused by a closed queue was already counted
  // submitted, so it must land in a bucket — in block mode (a producer
  // parked in Push) exactly as in shed mode — and say "stopped".
  for (const OverloadPolicy policy :
       {OverloadPolicy::kBlock, OverloadPolicy::kShed}) {
    for (int trial = 0; trial < 10; ++trial) {
      ServiceOptions options = ManualOptions();
      options.num_workers = 2;
      options.queue_capacity = 1;
      options.overload = policy;
      auto service = AggregationService::Create(options).value();
      constexpr std::uint64_t kProducers = 4;
      std::vector<std::thread> producers;
      for (std::uint64_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&service, p, policy] {
          for (std::uint64_t i = 0;; ++i) {
            const Status status = service->Submit(
                MakeEnvelope(p * 1000000 + i, 0, 0, 0.001 * i));
            if (status.ok()) continue;
            ASSERT_EQ(status.code(), StatusCode::kUnavailable);
            if (status.message().find("stopped") != std::string::npos) {
              return;
            }
            // Only shed mode refuses a live queue.
            ASSERT_EQ(policy, OverloadPolicy::kShed) << status.ToString();
          }
        });
      }
      while (service->Stats().submitted < 300) std::this_thread::yield();
      ASSERT_TRUE(service->Finish().ok());
      for (std::thread& t : producers) t.join();
      const ServiceStats stats = service->Stats();
      EXPECT_GE(stats.submitted, 300u);
      EXPECT_GT(stats.accepted, 0u);
      ASSERT_TRUE(service->VerifyReconciliation().ok())
          << "trial " << trial << ": "
          << service->VerifyReconciliation().ToString();
    }
  }
}

TEST(ServiceTest, KillAndRestoreRepublishesBitIdenticalEstimates) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ReportStreamOptions stream_options;
    stream_options.num_reports = 1000;
    stream_options.num_dims = 4;
    stream_options.report_dims = 2;
    stream_options.num_tenants = 3;
    stream_options.seed = 77;
    stream_options.reports_per_tick = 100;
    stream_options.faults.duplicate_rate = 0.05;
    stream_options.faults.reorder_rate = 0.1;

    // Reference: the uninterrupted run.
    auto ref_stream = ReportStream::Create(stream_options).value();
    ServiceOptions base = ref_stream.MakeServiceOptions();
    base.window.width = 2;
    base.window.lateness = 1;
    base.num_workers = workers;
    base.overload = OverloadPolicy::kBlock;
    base.tenant_epsilon = 400.0;
    base.per_report_epsilon = 1.0;
    auto reference = AggregationService::Create(base).value();
    ASSERT_TRUE(Drive(&ref_stream, reference.get()).ok());
    ASSERT_TRUE(reference->VerifyReconciliation().ok());
    ExpectNoneShedOrMalformed(*reference);

    // Crash run: ingest half, snapshot, drop the service without
    // Finish() (the crash), restore, replay the suffix.
    ServiceOptions crashed = base;
    crashed.checkpoint_path =
        TempPath("kill_restore_" + std::to_string(workers));
    crashed.digest_tag = "test-kill-restore";
    auto first = AggregationService::Create(crashed).value();
    ASSERT_FALSE(first->resumed());
    auto stream = ReportStream::Create(stream_options).value();
    ASSERT_EQ(Drive(&stream, first.get(), {.snapshot_every = 500,
                                          .stop_at = 500})
                  .value(),
              DriveEnd::kStopped);
    ExpectNoneShedOrMalformed(*first);
    first.reset();  // simulated crash: no Finish(), checkpoint survives

    auto second = AggregationService::Create(crashed).value();
    ASSERT_TRUE(second->resumed());
    EXPECT_EQ(second->resume_cursor(), 500u);
    auto resumed_stream = ReportStream::Create(stream_options).value();
    ASSERT_TRUE(Drive(&resumed_stream, second.get()).ok());
    ASSERT_TRUE(second->VerifyReconciliation().ok());

    ExpectSameStats(reference->Stats(), second->Stats());
    ExpectSameWindows(reference->PublishedWindows(),
                      second->PublishedWindows());
    ASSERT_TRUE(second->Finish().ok());
    // Finish() removed the spent checkpoint: a fresh Create is fresh.
    auto after = AggregationService::Create(crashed).value();
    EXPECT_FALSE(after->resumed());
  }
}

TEST(ServiceTest, CheckpointRefusesAMismatchedRun) {
  ServiceOptions options = ManualOptions();
  options.checkpoint_path = TempPath("digest_mismatch");
  options.digest_tag = "run-a";
  auto service = AggregationService::Create(options).value();
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 0, 0, 0.5)).ok());
  ASSERT_TRUE(service->SaveSnapshot(1).ok());
  service.reset();
  // Same path, different stream parameters: typed refusal, not silent
  // cross-run contamination.
  ServiceOptions other = options;
  other.digest_tag = "run-b";
  EXPECT_FALSE(AggregationService::Create(other).ok());
  ServiceOptions wider = options;
  wider.num_dims = 3;
  EXPECT_FALSE(AggregationService::Create(wider).ok());
  // The original options still restore.
  auto restored = AggregationService::Create(options).value();
  EXPECT_TRUE(restored->resumed());
  ASSERT_TRUE(restored->Finish().ok());
}

// FNV-1a-64 of a file's bytes.
std::uint64_t FileFnv1a64(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c; in.get(c);) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ServiceTest, CheckpointFileBytesArePinned) {
  // The checkpoint a restarted service resumes from: header digest,
  // record frame, and a blob holding published windows, pane aggregate
  // states, tenant ledgers, dedup intervals and buffered reports. A
  // build must keep reading an older build's file, so its bytes are
  // pinned.
  ReportStreamOptions stream_options;
  stream_options.num_reports = 400;
  stream_options.num_dims = 4;
  stream_options.report_dims = 2;
  stream_options.num_tenants = 3;
  stream_options.seed = 31;
  stream_options.reports_per_tick = 50;
  stream_options.faults.duplicate_rate = 0.05;
  auto stream = ReportStream::Create(stream_options).value();
  ServiceOptions options = stream.MakeServiceOptions();
  // Recorded with a default (codec-less) codec configuration, which the
  // digest hashes; the numeric payloads ignore it either way.
  options.codec = PayloadCodecOptions();
  options.window.width = 2;
  options.window.lateness = 1;
  options.num_workers = 1;
  options.overload = OverloadPolicy::kBlock;
  options.tenant_epsilon = 400.0;
  options.per_report_epsilon = 1.0;
  options.checkpoint_path = TempPath("pinned_bytes");
  options.digest_tag = "test-pinned-bytes";
  auto service = AggregationService::Create(options).value();
  ASSERT_EQ(
      Drive(&stream, service.get(), {.snapshot_every = 275, .stop_at = 275})
          .value(),
      DriveEnd::kStopped);
  ExpectNoneShedOrMalformed(*service);
  ASSERT_GT(service->Stats().published_windows, 0u);
  EXPECT_EQ(FileFnv1a64(options.checkpoint_path), 0x92f819c8def4302cULL);
  ASSERT_TRUE(service->Finish().ok());
}

// A structurally valid envelope around arbitrary payload bytes.
std::vector<std::uint8_t> MakePayloadEnvelope(
    std::uint64_t tenant, std::uint64_t seq, std::uint64_t tick,
    std::vector<std::uint8_t> payload) {
  protocol::ReportEnvelope envelope;
  envelope.tenant = tenant;
  envelope.sequence = seq;
  envelope.tick = tick;
  envelope.payload = std::move(payload);
  return protocol::EncodeEnvelope(envelope);
}

TEST(ServiceTest, FaultedCheckpointFileBytesArePinned) {
  // The pin above comes from a near-clean run whose counters are mostly
  // zero, so it cannot see two counters trade places in the snapshot
  // blob. This run drives every bucket a deterministic replay can reach
  // to a nonzero count, all pairwise distinct: duplicates (deduped),
  // reordering past a zero lateness grace (late), corrupt envelopes and
  // payloads (malformed), out-of-range dimensions (invalid), exhausted
  // budgets (budget), the quarantines those streaks trip, and two torn
  // snapshot writes (failed snapshots).
  ReportStreamOptions stream_options;
  stream_options.num_reports = 600;
  stream_options.num_dims = 4;
  stream_options.report_dims = 2;
  stream_options.num_tenants = 3;
  stream_options.seed = 57;
  stream_options.reports_per_tick = 50;
  stream_options.faults.duplicate_rate = 0.05;
  stream_options.faults.reorder_rate = 0.1;
  auto stream = ReportStream::Create(stream_options).value();
  ServiceOptions options = stream.MakeServiceOptions();
  options.window.width = 2;
  options.window.slide = 1;
  options.num_workers = 1;
  options.overload = OverloadPolicy::kBlock;
  options.tenant_epsilon = 170.0;
  options.per_report_epsilon = 1.0;
  options.max_invalid_per_tenant = 5;
  options.checkpoint_path = TempPath("pinned_faulted_bytes");
  options.digest_tag = "test-pinned-faulted-bytes";
  // Ops 0 and 1 open the file; the Saves at positions 100, 200, 300 and
  // 400 are ops 2 to 5, so the middle two tear.
  options.snapshot_write_faults.Add(3, WriteFaultKind::kShortWrite);
  options.snapshot_write_faults.Add(4, WriteFaultKind::kNoSpace);
  auto service = AggregationService::Create(options).value();

  protocol::UserReport out_of_range;
  out_of_range.entries = {{9, 0.5}, {10, 0.5}};
  const std::vector<std::uint8_t> invalid_payload =
      protocol::EncodeReport(out_of_range).value();
  const std::vector<std::uint8_t> valid_payload =
      protocol::EncodeReport(protocol::UserReport{{{0, 0.25}, {1, -0.25}}})
          .value();
  const std::vector<std::uint8_t> garbage_payload = {0xFF, 0xFF, 0xFF};
  std::uint64_t bad_seq = 0;
  std::vector<std::uint8_t> envelope;
  std::uint64_t last_tick = 0;
  for (;;) {
    bool done = false;
    ASSERT_TRUE(stream.Next(&envelope, &done).ok());
    if (done) break;
    ASSERT_TRUE(service->Submit(envelope).ok());
    const std::uint64_t position = stream.position();
    if (position % 40 == 0) {
      // Tenant 100 alternates invalid and valid reports, so it never
      // trips; tenant 101 sends only garbage and trips after five.
      const std::uint64_t seq = bad_seq++;
      const auto& payload = seq % 2 == 0 ? invalid_payload : valid_payload;
      ASSERT_TRUE(
          service->Submit(MakePayloadEnvelope(100, seq, last_tick, payload))
              .ok());
      ASSERT_TRUE(service
                      ->Submit(MakePayloadEnvelope(101, seq, last_tick,
                                                   garbage_payload))
                      .ok());
    }
    if (position % 60 == 0) {
      // A torn envelope never reaches a worker.
      envelope.resize(envelope.size() / 2);
      EXPECT_EQ(service->Submit(envelope).code(), StatusCode::kDataLoss);
    }
    const std::uint64_t tick = position / 50;
    if (tick > last_tick) {
      last_tick = tick;
      ASSERT_TRUE(service->AdvanceWatermark(tick).ok());
    }
    if (position % 100 == 0 && position <= 400) {
      ASSERT_TRUE(service->SaveSnapshot(position).ok());
    }
  }
  ASSERT_TRUE(service->Drain().ok());
  ASSERT_TRUE(service->VerifyReconciliation().ok());
  ASSERT_TRUE(service->SaveSnapshot(stream.position()).ok());
  const ServiceStats stats = service->Stats();
  ASSERT_EQ(stats.failed_snapshots, 2u);
  // Only shed_queue_full needs a race to move (a full queue under kShed).
  for (const ServiceCounter& a : kServiceCounters) {
    if (a.field == &ServiceStats::shed_queue_full) continue;
    EXPECT_GT(stats.*a.field, 0u) << a.name;
    for (const ServiceCounter& b : kServiceCounters) {
      if (&a == &b || b.field == &ServiceStats::shed_queue_full) continue;
      EXPECT_NE(stats.*a.field, stats.*b.field) << a.name << " vs " << b.name;
    }
  }
  EXPECT_EQ(FileFnv1a64(options.checkpoint_path), 0x0d53a247b5fc1de1ULL);

  // Every counter rides the snapshot back.
  service.reset();
  auto restored = AggregationService::Create(options).value();
  ASSERT_TRUE(restored->resumed());
  EXPECT_EQ(restored->resume_cursor(), stream.position());
  ExpectSameStats(stats, restored->Stats());
  ASSERT_TRUE(restored->Finish().ok());
}

TEST(ServiceTest, FaultedDeliveryMatchesCleanEstimatesWhenLossless) {
  // Duplicates and reordering — but no drops — must not change the
  // published bits: dedup absorbs retransmits, the lateness grace
  // absorbs reordering.
  ReportStreamOptions clean_options;
  clean_options.num_reports = 600;
  clean_options.num_dims = 3;
  clean_options.num_tenants = 4;
  clean_options.seed = 13;
  clean_options.reports_per_tick = 100;
  ReportStreamOptions faulty_options = clean_options;
  faulty_options.faults.duplicate_rate = 0.2;
  faulty_options.faults.reorder_rate = 0.3;
  faulty_options.faults.reorder_delay = 3;

  auto clean_stream = ReportStream::Create(clean_options).value();
  auto faulty_stream = ReportStream::Create(faulty_options).value();
  ServiceOptions options = clean_stream.MakeServiceOptions();
  options.window.width = 1;
  // The driver advances the watermark by emitted position, and
  // duplicates inflate the faulty stream's position ~20% past event
  // time — the lateness grace must absorb that skew plus the reorder
  // delay, so 3 ticks (not 1) here.
  options.window.lateness = 3;
  auto clean = AggregationService::Create(options).value();
  auto faulty = AggregationService::Create(options).value();
  ASSERT_TRUE(Drive(&clean_stream, clean.get()).ok());
  ASSERT_TRUE(Drive(&faulty_stream, faulty.get()).ok());

  EXPECT_GT(faulty_stream.duplicated(), 0u);
  EXPECT_GT(faulty_stream.reordered(), 0u);
  const ServiceStats stats = faulty->Stats();
  EXPECT_EQ(stats.deduped, faulty_stream.duplicated());
  EXPECT_EQ(stats.accepted, 600u);
  EXPECT_EQ(stats.shed_late, 0u);
  ASSERT_TRUE(faulty->VerifyReconciliation().ok());
  ExpectSameWindows(clean->PublishedWindows(), faulty->PublishedWindows());
}

// A structurally valid envelope whose report names an out-of-range
// dimension — decodes cleanly at the wire layer, then fails report
// validation on the worker (counted rejected_invalid).
std::vector<std::uint8_t> MakeInvalidEnvelope(std::uint64_t tenant,
                                              std::uint64_t seq) {
  protocol::UserReport report;
  report.entries.push_back(protocol::DimensionReport{9, 0.5});
  report.entries.push_back(protocol::DimensionReport{10, 0.5});
  protocol::ReportEnvelope envelope;
  envelope.tenant = tenant;
  envelope.sequence = seq;
  envelope.tick = 0;
  envelope.payload = protocol::EncodeReport(report).value();
  return protocol::EncodeEnvelope(envelope);
}

TEST(ServiceTest, QuarantineTripsOnConsecutiveInvalidAndAcceptResets) {
  ServiceOptions options = ManualOptions();
  options.max_invalid_per_tenant = 3;
  auto service = AggregationService::Create(options).value();

  // Tenant 0: two rejections, then an accept that RESETS the streak —
  // so the tenant survives the next two rejections too…
  ASSERT_TRUE(service->Submit(MakeInvalidEnvelope(0, 0)).ok());
  ASSERT_TRUE(service->Submit(MakeInvalidEnvelope(0, 1)).ok());
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 2, 0, 0.25)).ok());
  ASSERT_TRUE(service->Submit(MakeInvalidEnvelope(0, 3)).ok());
  ASSERT_TRUE(service->Submit(MakeInvalidEnvelope(0, 4)).ok());
  // …until a third consecutive rejection trips the quarantine.
  ASSERT_TRUE(service->Submit(MakeInvalidEnvelope(0, 5)).ok());
  // Everything after the trip is counted-shed without decoding — even
  // reports that would have been perfectly valid.
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 6, 0, 0.5)).ok());
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 7, 0, 0.75)).ok());
  // Tenant 1 is honest throughout and must be untouched by tenant 0's
  // quarantine.
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    ASSERT_TRUE(service->Submit(MakeEnvelope(1, seq, 0, 0.1 * seq)).ok());
  }
  ASSERT_TRUE(service->Drain().ok());

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, 13u);
  EXPECT_EQ(stats.accepted, 6u);  // tenant 0's one accept + tenant 1's five
  EXPECT_EQ(stats.rejected_invalid, 5u);
  EXPECT_EQ(stats.shed_quarantined, 2u);
  EXPECT_EQ(stats.quarantined_tenants, 1u);
  // Quarantine sheds are part of the exact reconciliation ledger.
  ASSERT_TRUE(service->VerifyReconciliation().ok());
  const auto windows = service->PublishedWindows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].report_count, 6u);

  // Without the opt-in the same input never quarantines: the late valid
  // reports are accepted and every rejection is just counted.
  auto lenient = AggregationService::Create(ManualOptions()).value();
  for (const std::uint64_t seq : {0, 1, 3, 4, 5}) {
    ASSERT_TRUE(lenient->Submit(MakeInvalidEnvelope(0, seq)).ok());
  }
  ASSERT_TRUE(lenient->Submit(MakeEnvelope(0, 2, 0, 0.25)).ok());
  ASSERT_TRUE(lenient->Submit(MakeEnvelope(0, 6, 0, 0.5)).ok());
  ASSERT_TRUE(lenient->Drain().ok());
  EXPECT_EQ(lenient->Stats().quarantined_tenants, 0u);
  EXPECT_EQ(lenient->Stats().shed_quarantined, 0u);
  EXPECT_EQ(lenient->Stats().accepted, 2u);
  EXPECT_EQ(lenient->Stats().rejected_invalid, 5u);
}

TEST(ServiceTest, InfiniteValuesAreRejectedInvalidAndWindowsStayFinite) {
  // A Laplace service: the admissible output range is unbounded, so only
  // the finite-value rule keeps an infinite entry out of the sums.
  const auto laplace = mech::MakeMechanism("laplace").value();
  const mech::Interval range = laplace->OutputDomain(1.0).value();
  ASSERT_TRUE(std::isinf(range.lo) && std::isinf(range.hi));
  ServiceOptions options = ManualOptions();
  options.output_lo = range.lo;
  options.output_hi = range.hi;
  options.max_invalid_per_tenant = 2;
  auto service = AggregationService::Create(options).value();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Tenant 0 sends two infinite reports in a row: each counts toward its
  // invalid streak, so the second trips the quarantine.
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 0, 0, kInf)).ok());
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 1, 0, -kInf)).ok());
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 2, 0, 0.5)).ok());
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    ASSERT_TRUE(service->Submit(MakeEnvelope(1, seq, 0, 0.25 * seq)).ok());
  }
  ASSERT_TRUE(service->Drain().ok());
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.rejected_invalid, 2u);
  EXPECT_EQ(stats.rejected_malformed, 0u);
  EXPECT_EQ(stats.quarantined_tenants, 1u);
  EXPECT_EQ(stats.shed_quarantined, 1u);
  EXPECT_EQ(stats.accepted, 4u);
  ASSERT_TRUE(service->VerifyReconciliation().ok());
  const auto windows = service->PublishedWindows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].report_count, 4u);
  for (const double v : windows[0].estimate) {
    EXPECT_TRUE(std::isfinite(v)) << v;
  }
}

TEST(ServiceTest, QuarantineIsWorkerCountInvariantAndSurvivesRestore) {
  // Budget-exhausted tenants build rejection streaks and quarantine
  // mid-stream. The published bits, the full stats ledger (quarantine
  // counters included), and a kill/restore mid-run must all be
  // identical at every worker count.
  ReportStreamOptions stream_options;
  stream_options.num_reports = 1000;
  stream_options.num_dims = 4;
  stream_options.report_dims = 2;
  stream_options.num_tenants = 3;
  stream_options.seed = 88;
  stream_options.reports_per_tick = 100;
  stream_options.faults.duplicate_rate = 0.05;
  stream_options.faults.reorder_rate = 0.1;

  std::vector<PublishedWindow> baseline_windows;
  ServiceStats baseline_stats;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    auto ref_stream = ReportStream::Create(stream_options).value();
    ServiceOptions base = ref_stream.MakeServiceOptions();
    base.window.width = 2;
    base.window.lateness = 1;
    base.num_workers = workers;
    base.overload = OverloadPolicy::kBlock;
    base.tenant_epsilon = 60.0;  // capacity 60 sequences per tenant
    base.per_report_epsilon = 1.0;
    base.max_invalid_per_tenant = 4;
    auto reference = AggregationService::Create(base).value();
    ASSERT_TRUE(Drive(&ref_stream, reference.get()).ok());
    ASSERT_TRUE(reference->VerifyReconciliation().ok());
    ExpectNoneShedOrMalformed(*reference);

    const ServiceStats stats = reference->Stats();
    // Every tenant exhausts its budget long before the stream ends, so
    // every tenant eventually trips the quarantine.
    EXPECT_EQ(stats.quarantined_tenants, 3u);
    EXPECT_GT(stats.shed_quarantined, 0u);
    EXPECT_GE(stats.rejected_budget, 3u * 4u);

    // Crash after half the stream and restore: the quarantine state
    // (streaks, flags, counters) rides the snapshot bit-identically.
    ServiceOptions crashed = base;
    crashed.checkpoint_path =
        TempPath("quarantine_restore_" + std::to_string(workers));
    crashed.digest_tag = "test-quarantine-restore";
    auto first = AggregationService::Create(crashed).value();
    auto stream = ReportStream::Create(stream_options).value();
    ASSERT_EQ(Drive(&stream, first.get(), {.snapshot_every = 500,
                                          .stop_at = 500})
                  .value(),
              DriveEnd::kStopped);
    ExpectNoneShedOrMalformed(*first);
    first.reset();  // crash: no Finish()

    auto second = AggregationService::Create(crashed).value();
    ASSERT_TRUE(second->resumed());
    auto resumed_stream = ReportStream::Create(stream_options).value();
    ASSERT_TRUE(Drive(&resumed_stream, second.get()).ok());
    ASSERT_TRUE(second->VerifyReconciliation().ok());
    ExpectSameStats(stats, second->Stats());
    ExpectSameWindows(reference->PublishedWindows(),
                      second->PublishedWindows());
    ASSERT_TRUE(second->Finish().ok());

    if (workers == 1) {
      baseline_windows = reference->PublishedWindows();
      baseline_stats = stats;
    } else {
      // The 4-worker run agrees with the 1-worker run bit for bit —
      // quarantine decisions included.
      ExpectSameStats(baseline_stats, stats);
      ExpectSameWindows(baseline_windows, reference->PublishedWindows());
    }
  }
}

TEST(ServiceTest, FailedSnapshotDegradesWithoutTouchingEstimates) {
  ReportStreamOptions stream_options;
  stream_options.num_reports = 600;
  stream_options.num_dims = 4;
  stream_options.report_dims = 2;
  stream_options.num_tenants = 3;
  stream_options.seed = 45;
  stream_options.reports_per_tick = 100;

  // Reference: same stream, no snapshotting at all.
  auto clean_stream = ReportStream::Create(stream_options).value();
  ServiceOptions clean_options = clean_stream.MakeServiceOptions();
  clean_options.window.width = 2;
  auto clean = AggregationService::Create(clean_options).value();
  ASSERT_TRUE(Drive(&clean_stream, clean.get()).ok());

  // Faulted run: the snapshot file spends op 0 on its header, op 1 on
  // the compaction fsync; Saves are ops 2, 3, ... — so this schedule
  // lets the first SaveSnapshot land and tears the second.
  ServiceOptions options = clean_options;
  options.checkpoint_path = TempPath("degraded_save");
  options.digest_tag = "test-degraded-save";
  options.snapshot_write_faults.Add(3, WriteFaultKind::kShortWrite);
  auto service = AggregationService::Create(options).value();
  auto stream = ReportStream::Create(stream_options).value();
  std::vector<std::uint8_t> envelope;
  std::uint64_t last_tick = 0;
  bool done = false;
  while (!done) {
    ASSERT_TRUE(stream.Next(&envelope, &done).ok());
    if (done) break;
    ASSERT_TRUE(service->Submit(envelope).ok());
    const std::uint64_t tick = stream.position() / 100;
    if (tick > last_tick) {
      last_tick = tick;
      ASSERT_TRUE(service->AdvanceWatermark(tick).ok());
    }
    // First snapshot durable, second torn by the injected disk fault —
    // absorbed: SaveSnapshot still returns OK and serving continues.
    if (stream.position() == 200 || stream.position() == 400) {
      ASSERT_TRUE(service->SaveSnapshot(stream.position()).ok());
    }
  }
  ASSERT_TRUE(service->Drain().ok());
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.failed_snapshots, 1u);
  EXPECT_TRUE(stats.degraded);
  ASSERT_TRUE(service->VerifyReconciliation().ok());
  // Degradation never touches the published bits.
  ExpectSameWindows(clean->PublishedWindows(), service->PublishedWindows());

  // Crash. The torn second snapshot was rolled back, so the restore
  // resumes from the FIRST snapshot — the service never corrupted its
  // on-disk state, it only stopped advancing it.
  service.reset();
  auto restored = AggregationService::Create(options).value();
  ASSERT_TRUE(restored->resumed());
  EXPECT_EQ(restored->resume_cursor(), 200u);
  auto resumed_stream = ReportStream::Create(stream_options).value();
  ASSERT_TRUE(Drive(&resumed_stream, restored.get()).ok());
  ExpectSameWindows(clean->PublishedWindows(),
                    restored->PublishedWindows());
  ASSERT_TRUE(restored->Finish().ok());
}

TEST(ServiceTest, UnopenableCheckpointRunsSnapshotFreeNotSilent) {
  // Every write to the checkpoint fails from the first fsync on: the
  // service must still serve (degraded, counted), and a digest mismatch
  // must stay a loud error rather than being absorbed.
  ServiceOptions options = ManualOptions();
  options.checkpoint_path = TempPath("degraded_open");
  options.digest_tag = "test-degraded-open";
  WriteFaultSchedule::RandomOptions always;
  always.fsync_failure_rate = 1.0;
  options.snapshot_write_faults = WriteFaultSchedule(1, always);
  auto service = AggregationService::Create(options).value();
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 0, 0, 0.5)).ok());
  // Degraded mode: SaveSnapshot cannot persist anything, but the
  // serving loop must not see an error for it.
  ASSERT_TRUE(service->SaveSnapshot(1).ok());
  ASSERT_TRUE(service->Drain().ok());
  const ServiceStats stats = service->Stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_GE(stats.failed_snapshots, 2u);  // the failed open + the save
  EXPECT_EQ(stats.accepted, 1u);
  ASSERT_TRUE(service->VerifyReconciliation().ok());
}

TEST(ServiceTest, CheckpointUnderAMissingDirectoryRunsSnapshotFree) {
  // The checkpoint cannot even be created: that is storage failing
  // (DataLoss), so the service degrades and serves instead of refusing
  // to start.
  ServiceOptions options = ManualOptions();
  options.checkpoint_path = TempPath("no_such_dir") + "/ck";
  auto created = AggregationService::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto service = std::move(created).value();
  EXPECT_FALSE(service->resumed());
  ASSERT_TRUE(service->Submit(MakeEnvelope(0, 0, 0, 0.5)).ok());
  ASSERT_TRUE(service->Drain().ok());
  const ServiceStats stats = service->Stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.failed_snapshots, 1u);
  EXPECT_EQ(stats.accepted, 1u);
  ASSERT_TRUE(service->VerifyReconciliation().ok());
}

TEST(ServiceTest, UnsupportedOptionsAreTypedInvalidArgument) {
  ServiceOptions no_dims;
  EXPECT_EQ(AggregationService::Create(no_dims).status().code(),
            StatusCode::kInvalidArgument);
  ServiceOptions bad_budget = ManualOptions();
  bad_budget.tenant_epsilon = 1.0;  // without per_report_epsilon
  EXPECT_EQ(AggregationService::Create(bad_budget).status().code(),
            StatusCode::kInvalidArgument);
  ServiceOptions bad_window = ManualOptions();
  bad_window.window.width = 4;
  bad_window.window.slide = 3;  // does not divide the width
  EXPECT_EQ(AggregationService::Create(bad_window).status().code(),
            StatusCode::kInvalidArgument);
  auto service = AggregationService::Create(ManualOptions()).value();
  // SaveSnapshot without a checkpoint path is a typed precondition.
  EXPECT_EQ(service->SaveSnapshot(0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(WindowConfigTest, GeometryAndSealing) {
  WindowConfig tumbling;
  tumbling.width = 3;
  ASSERT_TRUE(tumbling.Validate().ok());
  EXPECT_EQ(tumbling.slide, 3u);
  EXPECT_EQ(tumbling.panes_per_window(), 1u);
  EXPECT_EQ(tumbling.PaneOf(0), 0u);
  EXPECT_EQ(tumbling.PaneOf(5), 1u);

  WindowConfig sliding;
  sliding.width = 4;
  sliding.slide = 2;
  sliding.lateness = 1;
  ASSERT_TRUE(sliding.Validate().ok());
  EXPECT_EQ(sliding.panes_per_window(), 2u);
  EXPECT_EQ(sliding.SealablePanes(0), 0u);
  EXPECT_EQ(sliding.SealablePanes(1), 0u);
  EXPECT_EQ(sliding.SealablePanes(3), 1u);   // (3 - 1) / 2
  EXPECT_EQ(sliding.SealablePanes(7), 3u);
}

TEST(SeqIntervalSetTest, InsertCoalescesAndDedups) {
  SeqIntervalSet set;
  EXPECT_TRUE(set.Insert(5));
  EXPECT_FALSE(set.Insert(5));  // duplicate detected
  EXPECT_TRUE(set.Insert(7));
  EXPECT_TRUE(set.Insert(6));  // bridges [5,5] and [7,7]
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.intervals().size(), 1u);  // one coalesced run [5,7]
  EXPECT_TRUE(set.Contains(6));
  EXPECT_FALSE(set.Contains(8));
  SeqIntervalSet restored;
  for (const auto& [lo, hi] : set.intervals()) {
    restored.RestoreInterval(lo, hi);
  }
  EXPECT_EQ(restored.size(), 3u);
  EXPECT_FALSE(restored.Insert(7));
  EXPECT_TRUE(restored.Insert(9));
}

}  // namespace
}  // namespace service
}  // namespace hdldp
