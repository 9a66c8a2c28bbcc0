#include "service/aggregation_service.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/bytes.h"
#include "common/rng.h"
#include "engine/reduce.h"
#include "protocol/aggregator.h"

namespace hdldp {
namespace service {

namespace {

// Version 3 added the quarantine state (per-tenant invalid_streak +
// quarantined flag, the shed_quarantined / quarantined_tenants /
// failed_snapshots counters); version 2 added accepted_payload_bytes.
// Older blobs are rejected — checkpoints are same-version artifacts,
// not archival data.
constexpr std::uint32_t kSnapshotBlobVersion = 3;
// The blob stores the ledger in kServiceCounters order: a new counter is
// a new blob layout.
static_assert(kNumServiceCounters == 14 && kSnapshotBlobVersion == 3,
              "a service counter was added or removed: bump "
              "kSnapshotBlobVersion and the count here");

// Position of `field` in kServiceCounters. A field missing from the
// table reads past its end, which no constant evaluation allows.
consteval std::size_t Slot(std::uint64_t ServiceStats::*field) {
  std::size_t i = 0;
  while (kServiceCounters[i].field != field) ++i;
  return i;
}

// The slots code bumps by name.
using S = ServiceStats;
constexpr std::size_t kSubmitted = Slot(&S::submitted);
constexpr std::size_t kAccepted = Slot(&S::accepted);
constexpr std::size_t kAcceptedPayloadBytes = Slot(&S::accepted_payload_bytes);
constexpr std::size_t kDeduped = Slot(&S::deduped);
constexpr std::size_t kShedQueueFull = Slot(&S::shed_queue_full);
constexpr std::size_t kShedLate = Slot(&S::shed_late);
constexpr std::size_t kShedQuarantined = Slot(&S::shed_quarantined);
constexpr std::size_t kRejectedMalformed = Slot(&S::rejected_malformed);
constexpr std::size_t kRejectedInvalid = Slot(&S::rejected_invalid);
constexpr std::size_t kRejectedBudget = Slot(&S::rejected_budget);
constexpr std::size_t kQuarantinedTenants = Slot(&S::quarantined_tenants);
constexpr std::size_t kFailedSnapshots = Slot(&S::failed_snapshots);
constexpr std::size_t kPublishedWindows = Slot(&S::published_windows);
constexpr std::size_t kPublishedReports = Slot(&S::published_reports);

// Pane-seal accumulator: a MeanAggregator reduced with the state-exact
// merge plus the report count the published window reconciles against.
struct PaneAccumulator {
  protocol::MeanAggregator agg;
  std::uint64_t reports = 0;

  void Reset() {
    agg.Reset();
    reports = 0;
  }
  Status Merge(const PaneAccumulator& other) {
    reports += other.reports;
    return agg.MergeState(other.agg);
  }
};

std::vector<unsigned char> BuildDigest(const ServiceOptions& options) {
  protocol::RunDigest digest;
  digest.AddString("hdldp-service-v1");
  digest.AddU64(options.num_dims);
  digest.AddU64(options.window.width);
  digest.AddU64(options.window.slide);
  digest.AddU64(options.window.lateness);
  digest.AddF64(options.tenant_epsilon);
  digest.AddF64(options.per_report_epsilon);
  digest.AddU64(options.expected_entries);
  digest.AddF64(options.output_lo);
  digest.AddF64(options.output_hi);
  digest.AddF64(options.domain_map.scale());
  digest.AddF64(options.domain_map.Forward(0.0));
  digest.AddU64(0);  // Retired bias-vector length: keeps checkpoints valid.
  // The payload encoding and codec geometry: a checkpoint taken while
  // ingesting OUE payloads must never resume a run decoding OLH ones.
  digest.AddU64(static_cast<std::uint64_t>(options.codec.encoding));
  digest.AddF64(options.codec.epsilon);
  digest.AddU64(options.codec.report_dims);
  digest.AddU64(options.codec.num_questions);
  digest.AddU64(options.codec.num_categories);
  digest.AddU64(options.codec.num_dims);
  // Quarantine changes the accepted set, so two runs that disagree on
  // the trip wire must never share a checkpoint.
  digest.AddU64(options.max_invalid_per_tenant);
  digest.AddString(options.digest_tag);
  // Worker count, queue capacity and overload policy are deliberately
  // absent: estimates are invariant to them, so a run checkpointed at 4
  // workers restores bit-identically at 1 (and vice versa).
  return digest.bytes;
}

}  // namespace

std::string FormatStats(const ServiceStats& stats) {
  std::string line;
  for (std::size_t i = 0; i < kNumServiceCounters; ++i) {
    line += ' ';
    line += kServiceCounters[i].name;
    line += '=';
    line += std::to_string(stats.*kServiceCounters[i].field);
    if (i == kFailedSnapshots) {
      line += stats.degraded ? " degraded=1" : " degraded=0";
    }
  }
  return line;
}

AggregationService::AggregationService(ServiceOptions options)
    : options_(std::move(options)) {}

std::size_t AggregationService::GroupOf(std::uint64_t tenant) {
  // One SplitMix64 fate draw keyed by the tenant (the fate-hash pattern
  // of data::FaultSchedule::Random): a pure function of the tenant, so a
  // tenant's dedup/budget/buffer state always lives in one group no
  // matter how many workers the process runs.
  std::uint64_t mix = 0x5EA1ULL ^ (0x9e3779b97f4a7c15ULL * (tenant + 1));
  return static_cast<std::size_t>(SplitMix64(&mix) % kNumShardGroups);
}

Result<std::unique_ptr<AggregationService>> AggregationService::Create(
    ServiceOptions options) {
  if (options.num_dims == 0) {
    return Status::InvalidArgument("service requires num_dims > 0");
  }
  HDLDP_RETURN_NOT_OK(options.window.Validate());
  std::uint64_t budget_capacity = 0;
  if (options.tenant_epsilon > 0.0) {
    if (!(options.per_report_epsilon > 0.0)) {
      return Status::InvalidArgument(
          "a per-tenant budget requires per_report_epsilon > 0");
    }
    HDLDP_ASSIGN_OR_RETURN(
        const protocol::BudgetAccountant probe,
        protocol::BudgetAccountant::Create(options.tenant_epsilon));
    HDLDP_ASSIGN_OR_RETURN(budget_capacity,
                           probe.Capacity(options.per_report_epsilon));
  }
  if (options.num_workers == 0) {
    options.num_workers =
        std::max(1u, std::thread::hardware_concurrency());
  }
  // Submit routes by shard group, so a worker past the group count
  // would never receive a report.
  options.num_workers = std::min(options.num_workers, kNumShardGroups);
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be > 0");
  }

  std::unique_ptr<AggregationService> svc(
      new AggregationService(std::move(options)));
  svc->workers_ = svc->options_.num_workers;
  svc->budget_capacity_ = budget_capacity;
  if (svc->options_.codec.encoding != protocol::ReportEncoding::kDense) {
    HDLDP_ASSIGN_OR_RETURN(PayloadCodec codec,
                           PayloadCodec::Create(svc->options_.codec));
    if (codec.service_dims() != svc->options_.num_dims) {
      return Status::InvalidArgument(
          "codec geometry disagrees with num_dims (expected " +
          std::to_string(codec.service_dims()) + " aggregated dims)");
    }
    svc->codec_.emplace(std::move(codec));
  }
  svc->groups_.reserve(kNumShardGroups);
  for (std::size_t g = 0; g < kNumShardGroups; ++g) {
    svc->groups_.push_back(std::make_unique<GroupState>());
  }

  if (!svc->options_.checkpoint_path.empty()) {
    const std::vector<unsigned char> digest = BuildDigest(svc->options_);
    auto opened =
        protocol::SnapshotFile::Open(svc->options_.checkpoint_path, digest,
                                     svc->options_.snapshot_write_faults);
    if (opened.ok()) {
      protocol::SnapshotFile snapshot = std::move(opened).value();
      if (snapshot.resumed()) {
        const auto state = snapshot.Load(0);
        if (!state.has_value()) {
          return Status::DataLoss(
              "service checkpoint resumed but holds no state record");
        }
        HDLDP_RETURN_NOT_OK(svc->RestoreSnapshot(state->acc_state));
        svc->snapshot_seq_ = state->chunks_done;
        svc->resumed_ = true;
      }
      svc->snapshot_.emplace(std::move(snapshot));
    } else if (opened.status().code() == StatusCode::kResourceExhausted ||
               opened.status().code() == StatusCode::kDataLoss) {
      // Graceful degradation: an unwritable (full disk, failing fsync)
      // or unreadably corrupt checkpoint must not stop serving. Run
      // snapshot-free; the stats ledger reports the service degraded
      // and every SaveSnapshot attempt counts as failed. A digest
      // mismatch (another run's checkpoint) stays a loud typed error.
      svc->Count(kFailedSnapshots);
    } else {
      return opened.status();
    }
  }

  svc->queues_.reserve(svc->workers_);
  for (std::size_t w = 0; w < svc->workers_; ++w) {
    svc->queues_.push_back(
        std::make_unique<IngestQueue>(svc->options_.queue_capacity));
  }
  svc->pool_ = std::make_unique<ThreadPool>(svc->workers_);
  AggregationService* raw = svc.get();
  for (std::size_t w = 0; w < svc->workers_; ++w) {
    svc->pool_->Post([raw, w] { raw->WorkerLoop(w); });
  }
  return svc;
}

AggregationService::~AggregationService() {
  if (!stopped_.exchange(true)) {
    for (auto& queue : queues_) queue->Close();
    pool_.reset();
  }
  // A destructor without Finish() models a crash: the checkpoint file
  // stays on disk for the next Create() to restore.
  if (snapshot_.has_value()) {
    const Status ignored = snapshot_->Close();
    (void)ignored;
  }
}

Status AggregationService::Submit(std::span<const std::uint8_t> bytes) {
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::Unavailable("aggregation service is stopped");
  }
  Count(kSubmitted);
  auto envelope = protocol::ParseEnvelope(bytes);
  if (!envelope.ok()) {
    Count(kRejectedMalformed);
    return envelope.status();
  }
  // The push copies the payload into the queue's byte arena while
  // `bytes` is still the caller's.
  IngestQueue& queue = *queues_[GroupOf(envelope.value().tenant) % workers_];
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const bool queued = options_.overload == OverloadPolicy::kShed
                          ? queue.TryPush(std::move(envelope).value())
                          : queue.Push(std::move(envelope).value());
  if (queued) return Status::OK();
  Retire(1);
  // Either policy's refusal lands in one bucket. A queue refuses an
  // item for being full (kShed only) or for being closed, and stopped_
  // is raised before any queue closes.
  Count(kShedQueueFull);
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::Unavailable("aggregation service is stopped");
  }
  return Status::Unavailable("ingestion queue full: report shed");
}

void AggregationService::WorkerLoop(std::size_t worker) {
  IngestQueue& queue = *queues_[worker];
  IngestBatch batch;
  // Every report of every batch decodes into this one buffer; it is
  // copied into its pane before the next decode.
  protocol::UserReport report;
  while (queue.PopAll(&batch)) {
    // What this batch adds to the ledger, published once before the
    // batch retires (so a quiesced Stats() is exact): per-report adds
    // would bounce the shared counters between workers and producer.
    std::array<std::uint64_t, kNumServiceCounters> tally{};
    std::uint64_t max_pane = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const protocol::EnvelopeView envelope = batch[i];
      const Outcome outcome = Process(envelope, &report);
      ++tally[outcome.bucket];
      tally[kQuarantinedTenants] += outcome.tripped ? 1 : 0;
      if (outcome.bucket == kAccepted) {
        tally[kAcceptedPayloadBytes] += envelope.payload.size();
        max_pane = std::max(max_pane, options_.window.PaneOf(envelope.tick));
      }
    }
    for (std::size_t c = 0; c < kNumServiceCounters; ++c) {
      if (tally[c] > 0) Count(c, tally[c]);
    }
    if (tally[kAccepted] > 0) {
      any_accepted_.store(true, std::memory_order_release);
      std::uint64_t seen = max_pane_seen_.load(std::memory_order_relaxed);
      while (max_pane > seen &&
             !max_pane_seen_.compare_exchange_weak(
                 seen, max_pane, std::memory_order_acq_rel)) {
      }
    }
    const std::size_t count = batch.size();
    batch.clear();  // keeps its storage for the next swap
    queue.Release(count);
    Retire(count);
  }
}

void AggregationService::Retire(std::uint64_t count) {
  if (pending_.fetch_sub(count, std::memory_order_acq_rel) == count) {
    std::lock_guard<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

AggregationService::Outcome AggregationService::Process(
    const protocol::EnvelopeView& envelope, protocol::UserReport* report) {
  const std::size_t g = GroupOf(envelope.tenant);
  const std::uint64_t pane = options_.window.PaneOf(envelope.tick);
  GroupState& group = *groups_[g];
  std::lock_guard<std::mutex> lock(group.mu);
  // The late check and the buffer insert share the group lock: the seal
  // path raises sealed_before_ *before* taking any group lock to
  // extract buffers, so a report is either buffered before its pane is
  // extracted or it observes the raised bound and is shed — never lost.
  if (pane < sealed_before_.load(std::memory_order_acquire)) {
    return {kShedLate};
  }
  TenantState& tenant = group.tenants[envelope.tenant];
  if (tenant.quarantined) {
    // O(1) containment: no decode, no dedup growth — a Byzantine tenant
    // flooding garbage costs one counter bump per report.
    return {kShedQuarantined};
  }
  // Counts one rejection toward the tenant's consecutive-invalid streak
  // and trips the quarantine at the configured threshold. A tenant's
  // reports drain from one fixed queue in submission order, so the
  // streak — and the trip point — is worker-count invariant.
  const auto reject = [&](std::size_t bucket) -> Outcome {
    const bool trips =
        options_.max_invalid_per_tenant > 0 &&
        ++tenant.invalid_streak >= options_.max_invalid_per_tenant;
    if (trips) tenant.quarantined = true;
    return {bucket, trips};
  };
  if (!tenant.seen.Insert(envelope.sequence)) return {kDeduped};
  const Status decoded =
      codec_.has_value() ? codec_->Decode(envelope.payload, report)
                         : protocol::DecodeReport(envelope.payload, report);
  if (!decoded.ok()) return reject(kRejectedMalformed);
  const std::size_t expected = options_.expected_entries > 0
                                   ? options_.expected_entries
                                   : report->entries.size();
  if (!protocol::ValidateReport(*report, options_.num_dims, expected,
                                options_.output_lo, options_.output_hi)
           .ok()) {
    return reject(kRejectedInvalid);
  }
  if (budget_capacity_ > 0) {
    // Sequence-keyed admission (see BudgetAccountant::Capacity): which
    // reports are over budget is a pure function of the stream, so the
    // accepted set never depends on arrival order. The ledger Spend is
    // the enforcement backstop — admission guarantees it fits.
    if (envelope.sequence >= budget_capacity_) {
      return reject(kRejectedBudget);
    }
    if (!tenant.ledger.has_value()) {
      auto ledger = protocol::BudgetAccountant::Create(
          options_.tenant_epsilon);
      tenant.ledger.emplace(std::move(ledger).value());
    }
    if (!tenant.ledger->Spend(options_.per_report_epsilon).ok()) {
      return reject(kRejectedBudget);
    }
    ++tenant.accepted;
  }
  tenant.invalid_streak = 0;
  group.panes[pane].Append(envelope.tenant, envelope.sequence,
                           report->entries);
  return {kAccepted};
}

void AggregationService::Quiesce() {
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

Status AggregationService::AdvanceWatermark(std::uint64_t watermark) {
  Quiesce();
  watermark_ = std::max(watermark_, watermark);
  return SealAndPublish(options_.window.SealablePanes(watermark_));
}

Status AggregationService::Drain() {
  Quiesce();
  std::uint64_t limit = sealed_before_.load(std::memory_order_acquire);
  if (any_accepted_.load(std::memory_order_acquire)) {
    limit = std::max(
        limit, max_pane_seen_.load(std::memory_order_acquire) + 1);
  }
  return SealAndPublish(limit);
}

Status AggregationService::SealAndPublish(std::uint64_t pane_limit) {
  const std::uint64_t sealed = sealed_before_.load(std::memory_order_acquire);
  if (pane_limit > sealed) {
    // Raise the bound before touching any group so a report processed
    // concurrently is either already buffered (extracted below) or shed
    // as late — see Process().
    sealed_before_.store(pane_limit, std::memory_order_release);
    for (std::uint64_t p = sealed; p < pane_limit; ++p) {
      auto make_acc = [this]() -> Result<PaneAccumulator> {
        HDLDP_ASSIGN_OR_RETURN(
            protocol::MeanAggregator agg,
            protocol::MeanAggregator::Create(options_.num_dims,
                                             options_.domain_map));
        return PaneAccumulator{std::move(agg), 0};
      };
      auto body = [this, p](std::size_t g,
                            PaneAccumulator* scratch) -> Status {
        PaneBuffer buffer;
        {
          std::lock_guard<std::mutex> lock(groups_[g]->mu);
          auto it = groups_[g]->panes.find(p);
          if (it != groups_[g]->panes.end()) {
            buffer = std::move(it->second);
            groups_[g]->panes.erase(it);
          }
        }
        // Processing order across workers is scheduling noise; the fold
        // order inside a group is pinned here instead. Dedup makes
        // (tenant, sequence) unique within a group, so the order is total.
        std::sort(buffer.reports.begin(), buffer.reports.end(),
                  [](const BufferedReport& a, const BufferedReport& b) {
                    return a.tenant != b.tenant ? a.tenant < b.tenant
                                                : a.sequence < b.sequence;
                  });
        const std::span<const protocol::DimensionReport> entries(
            buffer.entries);
        for (const BufferedReport& r : buffer.reports) {
          HDLDP_RETURN_NOT_OK(scratch->agg.ConsumeReport(
              entries.subspan(r.offset, r.count)));
        }
        scratch->reports += buffer.reports.size();
        return Status::OK();
      };
      // 64 groups <= kMaxReductionGroups, so the tree degenerates to a
      // flat in-group-order MergeState chain — one deterministic merge
      // sequence at every concurrency.
      HDLDP_ASSIGN_OR_RETURN(
          PaneAccumulator pane_acc,
          engine::ReduceChunks<PaneAccumulator>(kNumShardGroups, 0, make_acc,
                                                body));
      if (pane_acc.reports > 0) {
        PaneAggregate aggregate;
        aggregate.report_count = pane_acc.reports;
        pane_acc.agg.SerializeState(&aggregate.state);
        std::lock_guard<std::mutex> lock(publish_mu_);
        pane_aggregates_.emplace(p, std::move(aggregate));
      }
      // Empty panes are not materialized: PublishWindow treats a
      // missing pane as the (exact-identity) zero state.
    }
  }
  const std::uint64_t k = options_.window.panes_per_window();
  if (!any_accepted_.load(std::memory_order_acquire)) return Status::OK();
  const std::uint64_t limit = sealed_before_.load(std::memory_order_acquire);
  const std::uint64_t last_pane =
      max_pane_seen_.load(std::memory_order_acquire);
  while (next_window_ + k <= limit && next_window_ <= last_pane) {
    HDLDP_RETURN_NOT_OK(PublishWindow(next_window_));
    ++next_window_;
    std::lock_guard<std::mutex> lock(publish_mu_);
    pane_aggregates_.erase(pane_aggregates_.begin(),
                           pane_aggregates_.lower_bound(next_window_));
  }
  return Status::OK();
}

Status AggregationService::PublishWindow(std::uint64_t window) {
  HDLDP_ASSIGN_OR_RETURN(
      protocol::MeanAggregator acc,
      protocol::MeanAggregator::Create(options_.num_dims,
                                       options_.domain_map));
  PublishedWindow published;
  published.index = window;
  std::uint64_t report_count = 0;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    for (std::uint64_t p = window;
         p < window + options_.window.panes_per_window(); ++p) {
      const auto it = pane_aggregates_.find(p);
      if (it == pane_aggregates_.end()) continue;  // empty pane
      HDLDP_ASSIGN_OR_RETURN(
          protocol::MeanAggregator pane,
          protocol::MeanAggregator::Create(options_.num_dims,
                                           options_.domain_map));
      HDLDP_RETURN_NOT_OK(pane.RestoreState(it->second.state));
      HDLDP_RETURN_NOT_OK(acc.MergeState(pane));
      published.report_count += it->second.report_count;
    }
    report_count = published.report_count;
    published.estimate = acc.EstimatedMean();
    published_.push_back(std::move(published));
  }
  Count(kPublishedWindows);
  Count(kPublishedReports, report_count);
  return Status::OK();
}

Status AggregationService::SaveSnapshot(std::uint64_t resume_cursor) {
  if (!snapshot_.has_value()) {
    if (options_.checkpoint_path.empty()) {
      return Status::FailedPrecondition(
          "SaveSnapshot requires a checkpoint_path");
    }
    // Degraded mode: the checkpoint file could not be opened at Create.
    // Keep serving and keep counting the snapshots that never happened.
    Count(kFailedSnapshots);
    return Status::OK();
  }
  Quiesce();
  const std::vector<unsigned char> blob = SerializeSnapshot(resume_cursor);
  const Status saved = snapshot_->Save(0, ++snapshot_seq_, {}, blob);
  if (!saved.ok() && (saved.code() == StatusCode::kResourceExhausted ||
                      saved.code() == StatusCode::kDataLoss)) {
    // Graceful degradation: the failed append was rolled back, so the
    // previous snapshot is still intact and restorable. Record the
    // failure loudly in the stats ledger and keep serving — estimates
    // never depend on the snapshot path.
    Count(kFailedSnapshots);
    return Status::OK();
  }
  return saved;
}

Status AggregationService::Finish() {
  if (!stopped_.exchange(true)) {
    for (auto& queue : queues_) queue->Close();
    pool_.reset();
  }
  if (snapshot_.has_value()) {
    const Status closed = snapshot_->Close();
    snapshot_.reset();
    if (!closed.ok()) {
      if (closed.code() != StatusCode::kResourceExhausted &&
          closed.code() != StatusCode::kDataLoss) {
        return closed;
      }
      // A failed final flush is the same graceful-degradation story as
      // a failed Save: the estimates this run published never depended
      // on the snapshot, so count it and finish clean.
      Count(kFailedSnapshots);
    }
    HDLDP_RETURN_NOT_OK(
        protocol::SnapshotFile::Remove(options_.checkpoint_path));
  }
  return Status::OK();
}

ServiceStats AggregationService::Stats() const {
  ServiceStats s;
  for (std::size_t i = 0; i < kNumServiceCounters; ++i) {
    s.*kServiceCounters[i].field =
        counters_[i].load(std::memory_order_acquire);
  }
  s.degraded = s.*kServiceCounters[kFailedSnapshots].field > 0;
  return s;
}

Status AggregationService::VerifyReconciliation() const {
  const ServiceStats s = Stats();
  std::uint64_t accounted = 0;
  for (const ServiceCounter& counter : kServiceCounters) {
    if (counter.bucket) accounted += s.*counter.field;
  }
  const std::uint64_t submitted = s.*kServiceCounters[kSubmitted].field;
  if (accounted != submitted) {
    return Status::Internal(
        "shedding ledger mismatch: submitted " +
        std::to_string(submitted) + " but accounted " +
        std::to_string(accounted) +
        " (a lost report is a service bug, never a statistic)");
  }
  return Status::OK();
}

std::vector<PublishedWindow> AggregationService::PublishedWindows() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_;
}

std::vector<unsigned char> AggregationService::SerializeSnapshot(
    std::uint64_t resume_cursor) const {
  std::vector<unsigned char> blob;
  ByteWriter w(&blob);
  w.U32(kSnapshotBlobVersion);
  w.U64(resume_cursor);
  w.U64(watermark_);
  w.U64(sealed_before_.load(std::memory_order_acquire));
  w.U64(next_window_);
  w.U64(max_pane_seen_.load(std::memory_order_acquire));
  w.U64(any_accepted_.load(std::memory_order_acquire) ? 1 : 0);
  for (const auto& counter : counters_) {
    w.U64(counter.load(std::memory_order_acquire));
  }
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    // Published estimates are stored verbatim (not recomputed on
    // restore): their pane aggregates are already pruned, and verbatim
    // bits are what make a restored run's output diff-identical.
    w.U64(published_.size());
    for (const PublishedWindow& window : published_) {
      w.U64(window.index);
      w.U64(window.report_count);
      w.U64(window.estimate.size());
      w.Write(std::span<const double>(window.estimate));
    }
    w.U64(pane_aggregates_.size());
    for (const auto& [pane, aggregate] : pane_aggregates_) {
      w.U64(pane);
      w.U64(aggregate.report_count);
      w.U64(aggregate.state.size());
      w.Bytes(aggregate.state);
    }
  }
  w.U64(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    GroupState& group = *groups_[g];
    std::lock_guard<std::mutex> lock(group.mu);
    w.U64(group.tenants.size());
    for (const auto& [tenant, state] : group.tenants) {
      w.U64(tenant);
      w.U64(state.accepted);
      w.U64(state.invalid_streak);
      w.U64(state.quarantined ? 1 : 0);
      w.U64(state.seen.intervals().size());
      for (const auto& [lo, hi] : state.seen.intervals()) {
        w.U64(lo);
        w.U64(hi);
      }
    }
    w.U64(group.panes.size());
    for (const auto& [pane, buffer] : group.panes) {
      w.U64(pane);
      w.U64(buffer.reports.size());
      for (const BufferedReport& r : buffer.reports) {
        w.U64(r.tenant);
        w.U64(r.sequence);
        w.U64(r.count);
        for (std::size_t e = r.offset; e < r.offset + r.count; ++e) {
          w.U64(buffer.entries[e].dimension);
          w.F64(buffer.entries[e].value);
        }
      }
    }
  }
  return blob;
}

Status AggregationService::RestoreSnapshot(
    std::span<const unsigned char> blob) {
  // The blob rides inside one SnapshotFile record, which supplies the
  // CRC frame and torn-tail tolerance; this layer only has to be
  // unambiguous.
  ByteReader r(blob, StatusCode::kDataLoss,
               "service snapshot: truncated field");
  HDLDP_ASSIGN_OR_RETURN(const std::uint32_t version, r.U32());
  if (version != kSnapshotBlobVersion) {
    return Status::DataLoss("service snapshot: unsupported blob version " +
                            std::to_string(version));
  }
  HDLDP_ASSIGN_OR_RETURN(resume_cursor_, r.U64());
  HDLDP_ASSIGN_OR_RETURN(watermark_, r.U64());
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t sealed, r.U64());
  sealed_before_.store(sealed, std::memory_order_release);
  HDLDP_ASSIGN_OR_RETURN(next_window_, r.U64());
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t max_pane, r.U64());
  max_pane_seen_.store(max_pane, std::memory_order_release);
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t any, r.U64());
  any_accepted_.store(any != 0, std::memory_order_release);
  for (auto& counter : counters_) {
    HDLDP_ASSIGN_OR_RETURN(const std::uint64_t value, r.U64());
    counter.store(value, std::memory_order_release);
  }
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t published_count, r.U64());
  published_.clear();
  // Counts come from the blob; reserve only what the remaining bytes
  // could possibly encode so a corrupt count cannot force a wild
  // allocation (each window needs >= 24 bytes).
  published_.reserve(std::min<std::uint64_t>(
      published_count, r.remaining() / 24));
  for (std::uint64_t i = 0; i < published_count; ++i) {
    PublishedWindow window;
    HDLDP_ASSIGN_OR_RETURN(window.index, r.U64());
    HDLDP_ASSIGN_OR_RETURN(window.report_count, r.U64());
    HDLDP_ASSIGN_OR_RETURN(const std::uint64_t dims, r.U64());
    if (dims > r.remaining() / 8) {
      return Status::DataLoss("service snapshot: estimate dims exceed blob");
    }
    window.estimate.resize(dims);
    HDLDP_RETURN_NOT_OK(r.Read(std::span(window.estimate)));
    published_.push_back(std::move(window));
  }
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t pane_count, r.U64());
  pane_aggregates_.clear();
  for (std::uint64_t i = 0; i < pane_count; ++i) {
    PaneAggregate aggregate;
    HDLDP_ASSIGN_OR_RETURN(const std::uint64_t pane, r.U64());
    HDLDP_ASSIGN_OR_RETURN(aggregate.report_count, r.U64());
    HDLDP_ASSIGN_OR_RETURN(const std::uint64_t state_len, r.U64());
    if (state_len > r.remaining()) {
      return Status::DataLoss("service snapshot: truncated byte span");
    }
    HDLDP_ASSIGN_OR_RETURN(const std::span<const unsigned char> state,
                           r.Bytes(state_len));
    aggregate.state.assign(state.begin(), state.end());
    pane_aggregates_.emplace(pane, std::move(aggregate));
  }
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t group_count, r.U64());
  if (group_count != groups_.size()) {
    return Status::DataLoss("service snapshot: shard group count mismatch");
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    GroupState& group = *groups_[g];
    HDLDP_ASSIGN_OR_RETURN(const std::uint64_t tenant_count, r.U64());
    for (std::uint64_t t = 0; t < tenant_count; ++t) {
      HDLDP_ASSIGN_OR_RETURN(const std::uint64_t tenant_id, r.U64());
      TenantState& tenant = group.tenants[tenant_id];
      HDLDP_ASSIGN_OR_RETURN(tenant.accepted, r.U64());
      HDLDP_ASSIGN_OR_RETURN(tenant.invalid_streak, r.U64());
      HDLDP_ASSIGN_OR_RETURN(const std::uint64_t quarantined, r.U64());
      tenant.quarantined = quarantined != 0;
      HDLDP_ASSIGN_OR_RETURN(const std::uint64_t interval_count, r.U64());
      for (std::uint64_t i = 0; i < interval_count; ++i) {
        HDLDP_ASSIGN_OR_RETURN(const std::uint64_t lo, r.U64());
        HDLDP_ASSIGN_OR_RETURN(const std::uint64_t hi, r.U64());
        if (hi <= lo) {
          return Status::DataLoss("service snapshot: bad dedup interval");
        }
        tenant.seen.RestoreInterval(lo, hi);
      }
      if (options_.tenant_epsilon > 0.0 && tenant.accepted > 0) {
        HDLDP_ASSIGN_OR_RETURN(
            protocol::BudgetAccountant ledger,
            protocol::BudgetAccountant::Create(options_.tenant_epsilon));
        // Re-spending `accepted` equal charges reproduces the ledger's
        // spent total bit for bit (one scalar chain of equal adds).
        for (std::uint64_t i = 0; i < tenant.accepted; ++i) {
          HDLDP_RETURN_NOT_OK(ledger.Spend(options_.per_report_epsilon));
        }
        tenant.ledger.emplace(std::move(ledger));
      }
    }
    HDLDP_ASSIGN_OR_RETURN(const std::uint64_t pane_buffer_count, r.U64());
    for (std::uint64_t i = 0; i < pane_buffer_count; ++i) {
      HDLDP_ASSIGN_OR_RETURN(const std::uint64_t pane, r.U64());
      HDLDP_ASSIGN_OR_RETURN(const std::uint64_t report_count, r.U64());
      PaneBuffer& buffer = group.panes[pane];
      buffer.reports.reserve(std::min<std::uint64_t>(
          report_count, r.remaining() / 24));
      for (std::uint64_t j = 0; j < report_count; ++j) {
        BufferedReport report;
        HDLDP_ASSIGN_OR_RETURN(report.tenant, r.U64());
        HDLDP_ASSIGN_OR_RETURN(report.sequence, r.U64());
        HDLDP_ASSIGN_OR_RETURN(const std::uint64_t entries, r.U64());
        report.offset = buffer.entries.size();
        report.count = entries;
        for (std::uint64_t e = 0; e < entries; ++e) {
          HDLDP_ASSIGN_OR_RETURN(const std::uint64_t dim, r.U64());
          HDLDP_ASSIGN_OR_RETURN(const double value, r.F64());
          buffer.entries.push_back(protocol::DimensionReport{
              static_cast<std::uint32_t>(dim), value});
        }
        buffer.reports.push_back(report);
      }
    }
  }
  if (r.remaining() != 0) {
    return Status::DataLoss("service snapshot: trailing bytes");
  }
  return Status::OK();
}

}  // namespace service
}  // namespace hdldp
