// The aggregation service's ingest path without per-report heap
// traffic: queued payloads ride in the worker queues' byte arenas
// (service::IngestBatch), workers decode into one reused report, and
// validation needs no seen-set.
//
// This binary replaces the global operator new with a counting one, so
// the allocation guard below can see every heap allocation the producer
// and the workers make. Sanitizer runtimes own operator new: under
// ASan/TSan/MSan the replacement is compiled out and the guard skips
// itself. The arena tests run everywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/rng.h"
#include "protocol/wire.h"
#include "service/aggregation_service.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HDLDP_SANITIZED_NEW 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define HDLDP_SANITIZED_NEW 1
#endif
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

#ifndef HDLDP_SANITIZED_NEW
namespace {

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace hdldp {
namespace service {
namespace {

// One numeric envelope: `dims` ascending dimensions starting at
// `first_dim`, values drawn from `rng` in [-1, 1].
std::vector<std::uint8_t> NumericEnvelope(std::uint64_t tenant,
                                          std::uint64_t sequence,
                                          std::uint64_t tick,
                                          std::uint32_t first_dim,
                                          std::uint32_t dims,
                                          std::uint32_t stride, Rng* rng) {
  protocol::UserReport report;
  for (std::uint32_t k = 0; k < dims; ++k) {
    report.entries.push_back({first_dim + k * stride, rng->Uniform(-1, 1)});
  }
  protocol::ReportEnvelope envelope;
  envelope.tenant = tenant;
  envelope.sequence = sequence;
  envelope.tick = tick;
  envelope.payload = protocol::EncodeReport(report).value();
  return protocol::EncodeEnvelope(envelope);
}

TEST(IngestTest, SteadyNumericIngestMakesNoPerReportAllocation) {
#ifdef HDLDP_SANITIZED_NEW
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#else
  // The service_stream shape: d = 256, m = 8, two workers, backpressure.
  constexpr std::uint32_t kDims = 256;
  constexpr std::uint32_t kReportDims = 8;
  constexpr std::uint64_t kTenants = 16;
  constexpr std::size_t kWarm = 16384;
  constexpr std::size_t kMeasured = 16384;
  ServiceOptions options;
  options.num_dims = kDims;
  options.expected_entries = kReportDims;
  options.output_lo = -1.0;
  options.output_hi = 1.0;
  options.num_workers = 2;
  options.queue_capacity = 1024;
  options.overload = OverloadPolicy::kBlock;
  auto service = AggregationService::Create(options).value();

  // Every report lands in pane 0 and each tenant's sequences ascend
  // without holes, so once warm the dedup sets and pane maps are
  // settled: what is left is the per-report path itself.
  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> envelopes;
  for (std::size_t i = 0; i < kWarm + kMeasured; ++i) {
    const auto first = static_cast<std::uint32_t>(rng.UniformInt(kDims / 8));
    envelopes.push_back(NumericEnvelope(i % kTenants, i / kTenants, 0,
                                        first, kReportDims, kDims / 8, &rng));
  }
  for (std::size_t i = 0; i < kWarm; ++i) {
    ASSERT_TRUE(service->Submit(envelopes[i]).ok());
  }
  ASSERT_TRUE(service->AdvanceWatermark(0).ok());  // quiesce, seal nothing

  g_allocations.store(0);
  g_counting.store(true);
  for (std::size_t i = kWarm; i < kWarm + kMeasured; ++i) {
    const Status status = service->Submit(envelopes[i]);
    if (!status.ok()) {
      g_counting.store(false);
      FAIL() << status.ToString();
    }
  }
  const Status quiesced = service->AdvanceWatermark(0);
  g_counting.store(false);
  ASSERT_TRUE(quiesced.ok());
  const std::uint64_t allocations = g_allocations.load();

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.accepted, kWarm + kMeasured);
  ASSERT_TRUE(service->VerifyReconciliation().ok());
  // What may still allocate is amortized growth: each group's pane
  // entry and record arrays double (about one reallocation each while
  // the pane's report count doubles here), and the queues' arenas and
  // headers grow to their high-water batch. A payload vector, a decoded
  // entries vector or a seen-set per report would be tens of thousands.
  EXPECT_LE(allocations, kMeasured / 64)
      << allocations << " heap allocations while ingesting " << kMeasured
      << " reports";
#endif
}

TEST(IngestTest, BatchArenaKeepsEveryPayloadAcrossGrowthAndSwap) {
  // Payloads from a few bytes to far past the arena's first capacity:
  // every view must still read back its own bytes after the arena has
  // reallocated under it, and after swaps recycle the storage.
  Rng rng(3);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const std::size_t size : {3, 0, 90, 70000, 5, 1 << 20, 90, 12}) {
    std::vector<std::uint8_t> bytes(size);
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    payloads.push_back(std::move(bytes));
  }
  IngestBatch queued;
  IngestBatch drained;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      queued.push_back(protocol::EnvelopeView{i, 100 + i, 7 * i, payloads[i]});
    }
    ASSERT_TRUE(drained.empty());
    drained.swap(queued);  // what PopAll does
    EXPECT_TRUE(queued.empty());
    ASSERT_EQ(drained.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      const protocol::EnvelopeView view = drained[i];
      EXPECT_EQ(view.tenant, i);
      EXPECT_EQ(view.sequence, 100 + i);
      EXPECT_EQ(view.tick, 7 * i);
      ASSERT_EQ(view.payload.size(), payloads[i].size());
      EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                             payloads[i].begin()))
          << "round " << round << " payload " << i;
    }
    drained.clear();
  }
}

// Estimate bits of one service run over `envelopes`. With `one_by_one`
// every Submit is followed by a quiesce, so each drained batch holds a
// single report and the arena never holds more than one payload.
std::vector<PublishedWindow> Fold(
    const std::vector<std::vector<std::uint8_t>>& envelopes,
    std::uint32_t num_dims, bool one_by_one) {
  ServiceOptions options;
  options.num_dims = num_dims;
  options.num_workers = 1;
  options.queue_capacity = envelopes.size();
  options.overload = OverloadPolicy::kBlock;
  auto service = AggregationService::Create(options).value();
  for (const auto& envelope : envelopes) {
    EXPECT_TRUE(service->Submit(envelope).ok());
    if (one_by_one) {
      EXPECT_TRUE(service->AdvanceWatermark(0).ok());
    }
  }
  EXPECT_TRUE(service->Drain().ok());
  EXPECT_TRUE(service->VerifyReconciliation().ok());
  EXPECT_EQ(service->Stats().accepted, envelopes.size());
  return service->PublishedWindows();
}

TEST(IngestTest, OversizedPayloadsGrowTheArenaAndFoldLikeSmallOnes) {
  // Every fourth report carries all 4096 dimensions (a ~41 KB payload,
  // far beyond a small report's ~30 bytes); the rest carry two. Queued
  // together, the big ones grow the arena mid-batch.
  constexpr std::uint32_t kDims = 4096;
  Rng rng(11);
  std::vector<std::vector<std::uint8_t>> envelopes;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    const bool big = seq % 4 == 0;
    envelopes.push_back(NumericEnvelope(
        seq % 3, seq / 3, 0, big ? 0 : static_cast<std::uint32_t>(seq),
        big ? kDims : 2, big ? 1 : 64, &rng));
  }
  const auto batched = Fold(envelopes, kDims, false);
  const auto single = Fold(envelopes, kDims, true);
  ASSERT_EQ(batched.size(), 1u);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(batched[0].report_count, envelopes.size());
  EXPECT_EQ(single[0].report_count, envelopes.size());
  ASSERT_EQ(batched[0].estimate.size(), single[0].estimate.size());
  EXPECT_EQ(0, std::memcmp(batched[0].estimate.data(),
                           single[0].estimate.data(),
                           kDims * sizeof(double)));
}

}  // namespace
}  // namespace service
}  // namespace hdldp
