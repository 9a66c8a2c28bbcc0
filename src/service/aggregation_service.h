// service::AggregationService — the online collector: asynchronous
// ingestion of wire-format LDP reports, rolling tumbling/sliding-window
// estimates, graceful degradation under overload, and crash-safe
// snapshots.
//
// Architecture (one box per layer, data flowing left to right):
//
//   Submit(bytes) --> per-worker BoundedQueue --> worker threads
//        |                (backpressure or        (PopAll a batch, then
//        |                 accounted shedding;     per report: dedup,
//        |                 capacity counts the     decode into one reused
//        |                 worker's unreleased     buffer, validate,
//        |                 batch; payload bytes    budget, buffer;
//        v                 ride in a byte arena)   Release the batch)
//   typed Status                                        |
//                                                 shard groups: flat
//                                                 pane buffers (entry
//                                                 array + report records)
//                                                       |
//   AdvanceWatermark --> seal panes: sort each group's report records,
//                        fold their entries from the array, reduce the
//                        64 group partials through engine::ReduceChunks
//                        with MergeState
//                             |
//                             v
//                   pane aggregates --> publish windows (MergeState of
//                                       panes, in pane order)
//
// Robustness contract:
//
//   * Degradation is never silent. Every submitted report lands in
//     exactly one stats bucket: accepted, deduped, shed_queue_full,
//     shed_late, shed_quarantined, rejected_malformed, rejected_invalid,
//     or rejected_budget — VerifyReconciliation() checks the sum
//     exactly. This holds by construction: Submit() counts the refusals
//     it makes itself, and Process() returns the one bucket each queued
//     report landed in, which the worker tallies per batch and publishes
//     before retiring the batch. A snapshot write that fails raises the
//     degraded flag and failed_snapshots counter instead of corrupting
//     or blocking published estimates.
//   * Byzantine tenants are contained. With max_invalid_per_tenant set,
//     a tenant whose reports are rejected (malformed, out-of-range, or
//     budget-violating) that many times in a row is quarantined: every
//     later report from it is counted-shed at O(1) without decoding.
//     Because a tenant's reports route to one fixed worker queue in
//     submission order, the streak — and therefore the quarantine
//     decision — is identical at every worker count.
//   * Ingestion is idempotent: (tenant, sequence) identifies a report,
//     and retransmits/replays count as deduped without touching
//     estimates. This is also what makes at-least-once replay after a
//     crash safe.
//   * Budget enforcement is typed and order-invariant: with a per-tenant
//     budget configured, sequence s is admitted iff
//     s < BudgetAccountant::Capacity(per-report epsilon) — a pure
//     function of the stream, so which reports are rejected never
//     depends on arrival order or worker count; accepted reports charge
//     a per-tenant BudgetAccountant ledger that snapshots carry across
//     restarts.
//   * Estimates are worker-count invariant. All per-report state is
//     keyed by shard group (a pure hash of the tenant, 64 groups);
//     sealing sorts each group's pane buffer by (tenant, sequence)
//     before folding and merges group partials in group order through
//     the engine's deterministic reduction tree, so the published bits
//     depend only on the accepted set — which is itself deterministic
//     whenever Submit/AdvanceWatermark calls are sequenced (the replay
//     driver) or backpressure mode is used. Snapshots therefore exclude
//     the worker count from their digest, exactly like the batch
//     checkpoint codec excludes the thread count.
//   * Crash safety: SaveSnapshot() persists the full quiesced service
//     state (watermark, dedup intervals, open pane buffers, sealed pane
//     aggregates, published estimates, ledgers, stats) as one CRC-framed
//     SnapshotFile record; Create() on the same path restores it and
//     the run republishes bit-identical estimates.
//
// The ledger: kServiceCounters below declares every counter once — its
// stats-line name, its ServiceStats field, and whether it is a
// reconciliation bucket. The workers' atomics, Stats(),
// VerifyReconciliation(), the snapshot blob's counter block and
// FormatStats() (the CLI `stats` line) all iterate it. To add a counter:
// add the ServiceStats field and its table row (the row's position is
// its place in the snapshot blob and on the stats line), give it a slot
// constant in aggregation_service.cc if code bumps it, and bump
// kSnapshotBlobVersion, which a static_assert on the table size forces.
//
// Event-time semantics live in window.h; the deterministic report
// stream driving tests and benches lives in report_stream.h.

#ifndef HDLDP_SERVICE_AGGREGATION_SERVICE_H_
#define HDLDP_SERVICE_AGGREGATION_SERVICE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/file_writer.h"
#include "common/mpmc_queue.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "mech/mechanism.h"
#include "protocol/budget.h"
#include "protocol/report.h"
#include "protocol/snapshot.h"
#include "protocol/wire.h"
#include "service/payload_codec.h"
#include "service/seq_interval_set.h"
#include "service/window.h"

namespace hdldp {
namespace service {

/// Shard groups all per-report state is keyed by. A pure function of the
/// tenant (never of the worker count), so group state restores onto any
/// number of workers; 64 groups keep 4–16 workers busy while the group
/// partial reduce stays a flat in-order merge.
inline constexpr std::size_t kNumShardGroups = 64;

/// What Submit() does when a worker's ingestion queue is full.
enum class OverloadPolicy {
  /// Refuse the report (counted shed_queue_full, Unavailable returned):
  /// bounded memory and bounded submit latency, lossy under sustained
  /// overload. The serving default.
  kShed,
  /// Block the submitting thread until space opens (backpressure):
  /// lossless, so the accepted set stays deterministic — what replay
  /// and the equivalence tests use.
  kBlock,
};

/// \brief Configuration of one service instance.
struct ServiceOptions {
  /// Aggregated dimensionality: d for mean workloads, the expanded
  /// one-hot entry count for freq workloads.
  std::size_t num_dims = 0;
  /// Map from the mechanism's native output space back to the data
  /// domain, applied when publishing estimates.
  mech::DomainMap domain_map;

  /// Report validation: entries per report (0 = don't check) and the
  /// admissible native-space value range (infinities = unbounded).
  std::size_t expected_entries = 0;
  double output_lo = -std::numeric_limits<double>::infinity();
  double output_hi = std::numeric_limits<double>::infinity();

  /// Wire encoding of ingested payloads. kDense runs the version-1
  /// numeric decode; oue|olh|hadamard1 decode through a
  /// PayloadCodec whose unbiased entry values land in the data domain
  /// (use an identity domain_map and the codec's output_lo/hi).
  /// Create() rejects a codec whose service_dims() differ from num_dims.
  PayloadCodecOptions codec;

  /// Ingestion workers (0 = one per hardware thread), at most
  /// kNumShardGroups (Create clamps). Published estimates never depend
  /// on this.
  std::size_t num_workers = 1;
  /// Reports each worker may have in flight: queued plus drained into
  /// the batch the worker is processing. Submit() sheds (kShed) or
  /// blocks (kBlock) while a worker is at capacity.
  std::size_t queue_capacity = 1024;
  OverloadPolicy overload = OverloadPolicy::kShed;

  /// Event-time window geometry.
  WindowConfig window;

  /// Per-tenant total privacy budget (0 disables budget enforcement).
  double tenant_epsilon = 0.0;
  /// Budget one accepted report charges; required > 0 when
  /// tenant_epsilon > 0.
  double per_report_epsilon = 0.0;

  /// Byzantine-tenant quarantine: a tenant whose reports are rejected
  /// (malformed, out-of-range, or budget-violating) this many times
  /// CONSECUTIVELY is quarantined — all its later reports are shed at
  /// O(1) into the shed_quarantined bucket without decoding. An
  /// accepted report resets the streak; dedups and late sheds leave it
  /// untouched. 0 disables quarantine. Part of the snapshot digest.
  std::uint64_t max_invalid_per_tenant = 0;

  /// Snapshot file path; empty disables SaveSnapshot().
  std::string checkpoint_path;
  /// Write-fault injection for the snapshot path
  /// (common/file_writer.h). A Save that fails under an injected (or
  /// real) disk fault degrades the service — failed_snapshots counts
  /// it, Stats().degraded reports it — without touching estimates.
  WriteFaultSchedule snapshot_write_faults;
  /// Caller context folded into the snapshot digest (stream seed,
  /// mechanism, workload, ...) so a checkpoint never resumes a
  /// different run. Worker count and queue capacity are deliberately
  /// excluded.
  std::string digest_tag;
};

/// \brief Ingestion and publication counters. Every submitted report
/// lands in exactly one bucket: a kServiceCounters row marked `bucket`.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  /// Wire payload bytes of accepted reports (the communication ledger:
  /// accepted_payload_bytes / accepted = bytes per accepted user).
  std::uint64_t accepted_payload_bytes = 0;
  std::uint64_t deduped = 0;
  /// Refused by a full queue (kShed), or by a queue that Finish() or the
  /// destructor closed while the report was being submitted (any mode).
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_late = 0;
  /// Reports shed because their tenant is quarantined.
  std::uint64_t shed_quarantined = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_budget = 0;
  /// Tenants quarantined so far (monotone; never un-quarantined).
  std::uint64_t quarantined_tenants = 0;
  /// SaveSnapshot calls whose durable write failed (absorbed, see
  /// `degraded`).
  std::uint64_t failed_snapshots = 0;
  /// True iff at least one snapshot write failed: the service keeps
  /// publishing exact estimates but can no longer promise crash-safe
  /// resume past the last good snapshot.
  bool degraded = false;
  std::uint64_t published_windows = 0;
  /// Sum of PublishedWindow::report_count (a report counts once per
  /// window containing it, so for sliding windows this exceeds
  /// accepted).
  std::uint64_t published_reports = 0;
};

/// \brief One service counter: its name on the stats line, its
/// ServiceStats field, and whether it is a reconciliation bucket (one of
/// the outcomes every submitted report lands in exactly one of).
struct ServiceCounter {
  const char* name;
  std::uint64_t ServiceStats::*field;
  bool bucket;
};

/// Every service counter, declared once, in snapshot blob order.
inline constexpr ServiceCounter kServiceCounters[] = {
    {"submitted", &ServiceStats::submitted, false},
    {"accepted", &ServiceStats::accepted, true},
    {"accepted_payload_bytes", &ServiceStats::accepted_payload_bytes, false},
    {"deduped", &ServiceStats::deduped, true},
    {"shed_queue_full", &ServiceStats::shed_queue_full, true},
    {"shed_late", &ServiceStats::shed_late, true},
    {"shed_quarantined", &ServiceStats::shed_quarantined, true},
    {"rejected_malformed", &ServiceStats::rejected_malformed, true},
    {"rejected_invalid", &ServiceStats::rejected_invalid, true},
    {"rejected_budget", &ServiceStats::rejected_budget, true},
    {"quarantined_tenants", &ServiceStats::quarantined_tenants, false},
    {"failed_snapshots", &ServiceStats::failed_snapshots, false},
    {"published_windows", &ServiceStats::published_windows, false},
    {"published_reports", &ServiceStats::published_reports, false},
};
inline constexpr std::size_t kNumServiceCounters = std::size(kServiceCounters);

/// The ledger as ` name=value` pairs in table order, with the derived
/// `degraded` flag (0/1) right after failed_snapshots: the CLI `stats`
/// line without its leading word.
std::string FormatStats(const ServiceStats& stats);

/// \brief One published rolling estimate.
struct PublishedWindow {
  /// Window index w: the window covering ticks
  /// [w * slide, w * slide + width).
  std::uint64_t index = 0;
  /// Accepted reports folded into this window.
  std::uint64_t report_count = 0;
  /// Data-domain estimate per dimension.
  std::vector<double> estimate;
};

/// \brief The batch a service worker queue stores and PopAll hands over
/// (the `Batch` of common/mpmc_queue.h): each queued report's header
/// plus its payload's slice of one byte arena. A push copies the payload
/// bytes in; PopAll swaps the queue's batch with the worker's, so both
/// arenas keep their storage and a steady stream queues reports without
/// a heap allocation each.
class IngestBatch {
 public:
  void push_back(const protocol::EnvelopeView& envelope) {
    headers_.push_back({envelope.tenant, envelope.sequence, envelope.tick,
                        bytes_.size(), envelope.payload.size()});
    bytes_.insert(bytes_.end(), envelope.payload.begin(),
                  envelope.payload.end());
  }
  std::size_t size() const { return headers_.size(); }
  bool empty() const { return headers_.empty(); }
  void swap(IngestBatch& other) {
    headers_.swap(other.headers_);
    bytes_.swap(other.bytes_);
  }
  void clear() {
    headers_.clear();
    bytes_.clear();
  }
  /// Report i, its payload viewing this batch's arena (valid until the
  /// next push, swap or clear).
  protocol::EnvelopeView operator[](std::size_t i) const {
    const Header& h = headers_[i];
    return {h.tenant, h.sequence, h.tick,
            std::span<const std::uint8_t>(bytes_).subspan(h.offset,
                                                          h.size)};
  }

 private:
  struct Header {
    std::uint64_t tenant = 0;
    std::uint64_t sequence = 0;
    std::uint64_t tick = 0;
    std::size_t offset = 0;  // into bytes_
    std::size_t size = 0;
  };
  std::vector<Header> headers_;
  std::vector<std::uint8_t> bytes_;
};

/// \brief The online aggregation service. Thread-safe: Submit() may be
/// called from any number of producer threads; AdvanceWatermark(),
/// Drain(), SaveSnapshot() and Finish() must be externally sequenced
/// with each other (one driver thread).
class AggregationService {
 public:
  /// \brief Validates options, restores checkpoint state when
  /// `checkpoint_path` holds a matching snapshot, and starts the worker
  /// pool. Reports route to workers by shard group, so at most
  /// kNumShardGroups workers can receive any: more are clamped to that.
  static Result<std::unique_ptr<AggregationService>> Create(
      ServiceOptions options);

  ~AggregationService();

  AggregationService(const AggregationService&) = delete;
  AggregationService& operator=(const AggregationService&) = delete;

  /// \brief Submits one EncodeEnvelope buffer for asynchronous
  /// ingestion. Returns OK once the report is queued; DataLoss for a
  /// corrupt envelope (counted rejected_malformed); Unavailable when the
  /// target queue is full under OverloadPolicy::kShed (counted
  /// shed_queue_full) or the service is stopped. A report refused because
  /// Finish() or the destructor closed the queues while it was being
  /// submitted is counted shed_queue_full too, under either policy, and
  /// says "stopped"; one refused before that is not counted at all.
  /// Payload decoding, dedup, budget and validation run on the worker —
  /// their outcomes surface in Stats(), not here.
  Status Submit(std::span<const std::uint8_t> envelope_bytes);

  /// \brief Advances the event-time watermark: waits for all queued
  /// reports to be processed (quiescence), seals every pane whose
  /// lateness grace has expired, and publishes every window whose panes
  /// are all sealed. Monotone; stale watermarks are no-ops.
  Status AdvanceWatermark(std::uint64_t watermark);

  /// \brief End of stream: quiesces, seals everything with buffered
  /// data regardless of watermark, and publishes all remaining windows.
  Status Drain();

  /// \brief Persists the full service state as one snapshot record
  /// (quiesces first). `resume_cursor` is an opaque driver position
  /// (e.g. stream reports emitted so far) handed back by
  /// resume_cursor() after a restore. Requires a checkpoint_path.
  ///
  /// Graceful degradation: a durable-write failure (ResourceExhausted /
  /// DataLoss, injected or real) is absorbed — the previous on-disk
  /// snapshot survives intact (SnapshotFile rolls the torn tail back),
  /// failed_snapshots increments, Stats().degraded turns true, and OK
  /// is returned so the serving loop keeps publishing exact estimates.
  Status SaveSnapshot(std::uint64_t resume_cursor);

  /// \brief Closes and removes the spent checkpoint (call on successful
  /// completion, like the batch pipelines remove theirs).
  Status Finish();

  /// True iff Create() restored state from an existing checkpoint.
  bool resumed() const { return resumed_; }
  /// Driver position stored by the restored snapshot (0 when fresh).
  std::uint64_t resume_cursor() const { return resume_cursor_; }

  /// Snapshot of the counters (quiesce first for exact totals).
  ServiceStats Stats() const;

  /// \brief Checks the shedding ledger: submitted must equal the sum of
  /// the per-cause buckets exactly (call quiesced). Internal on
  /// mismatch — a lost report is a service bug, never a statistic.
  Status VerifyReconciliation() const;

  /// All windows published so far (restored ones included), ascending.
  std::vector<PublishedWindow> PublishedWindows() const;

  /// Worker threads running: the requested count, clamped to
  /// kNumShardGroups.
  std::size_t num_workers() const { return workers_; }

 private:
  struct TenantState {
    SeqIntervalSet seen;
    std::uint64_t accepted = 0;
    // Consecutive rejected reports; resets on accept. Drives the
    // quarantine trip wire (ServiceOptions::max_invalid_per_tenant).
    std::uint64_t invalid_streak = 0;
    bool quarantined = false;
    std::optional<protocol::BudgetAccountant> ledger;
  };

  // One buffered report: its identity and its entries'
  // [offset, offset + count) slice of the pane's entry array.
  struct BufferedReport {
    std::uint64_t tenant = 0;
    std::uint64_t sequence = 0;
    std::size_t offset = 0;
    std::size_t count = 0;
  };

  // The accepted reports of one pane in one group, in buffering order:
  // every entry in one contiguous array instead of one heap report each.
  struct PaneBuffer {
    std::vector<protocol::DimensionReport> entries;
    std::vector<BufferedReport> reports;

    void Append(std::uint64_t tenant, std::uint64_t sequence,
                std::span<const protocol::DimensionReport> report) {
      reports.push_back({tenant, sequence, entries.size(), report.size()});
      entries.insert(entries.end(), report.begin(), report.end());
    }
  };

  using IngestQueue = BoundedQueue<protocol::EnvelopeView, IngestBatch>;

  // All mutable per-report state of one shard group, guarded by `mu`.
  // A group is touched by the one worker its reports route to, plus the
  // driver thread during seal/snapshot — contention is the exception.
  struct GroupState {
    std::mutex mu;
    std::map<std::uint64_t, TenantState> tenants;
    std::map<std::uint64_t, PaneBuffer> panes;
  };

  struct PaneAggregate {
    std::uint64_t report_count = 0;
    std::vector<unsigned char> state;
  };

  explicit AggregationService(ServiceOptions options);

  static std::size_t GroupOf(std::uint64_t tenant);

  void WorkerLoop(std::size_t worker);
  // Where one queued report landed: its bucket (an index into
  // kServiceCounters) and whether its rejection tripped its tenant's
  // quarantine.
  struct Outcome {
    std::size_t bucket = 0;
    bool tripped = false;
  };
  // Ingests one queued report, decoding its payload into `report` (the
  // worker's reused buffer).
  Outcome Process(const protocol::EnvelopeView& envelope,
                  protocol::UserReport* report);
  // Adds `n` to one ledger counter (an index into kServiceCounters).
  void Count(std::size_t counter, std::uint64_t n = 1) {
    counters_[counter].fetch_add(n, std::memory_order_relaxed);
  }
  // Retires `count` reports from pending_, waking Quiesce() at zero.
  void Retire(std::uint64_t count);
  void Quiesce();
  // Seals panes [sealed_before_, pane_limit) and publishes completed
  // windows. Driver thread only, after Quiesce().
  Status SealAndPublish(std::uint64_t pane_limit);
  Status PublishWindow(std::uint64_t window);

  std::vector<unsigned char> SerializeSnapshot(
      std::uint64_t resume_cursor) const;
  Status RestoreSnapshot(std::span<const unsigned char> blob);

  ServiceOptions options_;
  std::size_t workers_ = 1;
  std::uint64_t budget_capacity_ = 0;  // admitted sequences per tenant
  // Compact-payload decoder (absent on the numeric path). Stateless;
  // shared by all workers without locking.
  std::optional<PayloadCodec> codec_;

  std::vector<std::unique_ptr<IngestQueue>> queues_;
  std::unique_ptr<ThreadPool> pool_;

  std::vector<std::unique_ptr<GroupState>> groups_;

  // Quiescence: +1 per report Submit() tries to queue, -1 once it is
  // processed (a batch at a time) or refused.
  std::atomic<std::uint64_t> pending_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  // Panes < sealed_before_ are sealed; workers shed reports for them.
  std::atomic<std::uint64_t> sealed_before_{0};
  // Highest pane any accepted report landed in (bounds Drain's seal).
  std::atomic<std::uint64_t> max_pane_seen_{0};
  std::atomic<bool> any_accepted_{false};
  std::uint64_t watermark_ = 0;    // driver thread only
  std::uint64_t next_window_ = 0;  // driver thread only

  // Driver-thread state guarded against concurrent readers of
  // PublishedWindows()/Stats() by publish_mu_.
  mutable std::mutex publish_mu_;
  std::map<std::uint64_t, PaneAggregate> pane_aggregates_;
  std::vector<PublishedWindow> published_;

  // The ledger, indexed like kServiceCounters.
  std::array<std::atomic<std::uint64_t>, kNumServiceCounters> counters_{};

  std::optional<protocol::SnapshotFile> snapshot_;
  std::uint64_t snapshot_seq_ = 0;
  bool resumed_ = false;
  std::uint64_t resume_cursor_ = 0;
  std::atomic<bool> stopped_{false};
};

}  // namespace service
}  // namespace hdldp

#endif  // HDLDP_SERVICE_AGGREGATION_SERVICE_H_
