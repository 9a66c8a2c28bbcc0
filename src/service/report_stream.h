// Deterministic report-stream generator + fault delivery model: the
// traffic source driving the aggregation service's tests, benches and
// CLI verbs, and Drive, the one loop that feeds a stream to a service.
//
// A stream is a pure function of its options: report i's tuple, sampled
// dimensions and perturbation draws all come from an Rng seeded by one
// SplitMix64 fate-hash of (seed, i), so the i-th report is bit-identical
// no matter how much of the stream was generated before it — the
// property that lets a crash-restored run SkipTo() its cursor and replay
// the exact suffix the dead process would have seen.
//
// Delivery faults (drop / duplicate / reorder) come from
// data::ReportFaultSchedule, keyed the same way, and are applied inside
// the stream: Next() emits envelopes in the faulted arrival order via a
// bounded release-slot heap. Duplicates re-emit the same envelope bytes
// (a retransmit, which the service must dedup), reordered reports arrive
// after later-sent ones (which the window lateness grace must absorb),
// and drops never arrive at all (counted here, so tests can reconcile
// generator against service totals).

#ifndef HDLDP_SERVICE_REPORT_STREAM_H_
#define HDLDP_SERVICE_REPORT_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/fault_injection.h"
#include "mech/mechanism.h"
#include "protocol/client.h"
#include "protocol/wire.h"
#include "service/aggregation_service.h"
#include "service/payload_codec.h"

namespace hdldp {
namespace service {

/// \brief Configuration of one deterministic report stream.
struct ReportStreamOptions {
  /// Which protocol the generated reports speak. kMean: m of d sampled
  /// dimensions at eps/m each, tuples uniform in [-1, 1]. kFrequency: m
  /// of q sampled questions, each one-hot encoded over c categories and
  /// perturbed entry-wise at eps/(2m).
  protocol::Workload workload = protocol::Workload::kMean;
  /// Wire encoding of the generated reports, accepted per workload by
  /// protocol::CheckEncoding. kDense emits the numeric version-1
  /// payloads (m of d entries each); kHadamard1 and kOue/kOlh emit the
  /// compact payload kinds, whose geometry, encoder parameters and value
  /// range the stream's PayloadCodec owns.
  protocol::ReportEncoding encoding = protocol::ReportEncoding::kDense;
  /// Registered mechanism name (mech::MakeMechanism). Unused by the
  /// compact encodings (their randomized response needs no value
  /// mechanism).
  std::string mechanism = "duchi";
  /// Logical reports in the stream (before drops/duplicates).
  std::uint64_t num_reports = 0;
  /// d for kMean; the question count q for kFrequency.
  std::size_t num_dims = 1;
  /// Categories per question (kFrequency only).
  std::size_t num_categories = 2;
  /// Total per-report privacy budget eps.
  double epsilon = 1.0;
  /// Sampled dimensions/questions m per report; 0 = all.
  std::size_t report_dims = 0;
  std::uint64_t seed = 1;
  /// Reports round-robin over this many tenants; report i is
  /// (tenant i % T, sequence i / T).
  std::uint64_t num_tenants = 1;
  /// Event-time: tick = i / reports_per_tick (0 = everything at tick 0).
  std::uint64_t reports_per_tick = 0;
  /// Delivery-fault rates; fates are keyed by (fault_seed, i).
  data::ReportFaultSchedule::Options faults;
  std::uint64_t fault_seed = 0;
};

/// \brief Pull-based deterministic envelope stream. Not thread-safe; one
/// driver thread pulls and fans out into AggregationService::Submit.
class ReportStream {
 public:
  static Result<ReportStream> Create(const ReportStreamOptions& options);

  /// \brief Produces the next arriving envelope. Sets *done = true (and
  /// leaves *envelope untouched) once the stream is exhausted.
  Status Next(std::vector<std::uint8_t>* envelope, bool* done);

  /// Envelopes emitted so far — the resume cursor the service snapshots.
  std::uint64_t position() const { return emitted_; }

  /// \brief Fast-forwards a fresh stream to `position` emitted
  /// envelopes, discarding everything before it (crash-resume replay).
  Status SkipTo(std::uint64_t position);

  /// Logical reports the fault model dropped so far.
  std::uint64_t dropped() const { return dropped_; }
  /// Extra retransmit copies emitted so far.
  std::uint64_t duplicated() const { return duplicated_; }
  /// Reports emitted out of their send order so far.
  std::uint64_t reordered() const { return reordered_; }

  /// Budget one report spends against its tenant: the total eps.
  double per_report_epsilon() const { return options_.epsilon; }

  /// Reports per event-time tick (0 = everything at tick 0): the cadence
  /// at which Drive advances the service's watermark.
  std::uint64_t reports_per_tick() const { return options_.reports_per_tick; }

  /// \brief `base` with the fields a service ingesting this stream
  /// needs filled in: the aggregated dimensionality (d for kMean, q * c
  /// for kFrequency), native-space domain map, entries per report,
  /// admissible value range, the codec configuration (every encoding;
  /// the numeric ones ignore it) and the checkpoint digest tag. The tag
  /// names everything that defines the stream and hence the estimates;
  /// worker count, queue capacity and overload policy are deliberately
  /// absent — estimates are invariant to them, so a serve checkpoint
  /// restores under replay and vice versa. Every other field (budget,
  /// windows, workers, checkpoint path) keeps its `base` value.
  ServiceOptions MakeServiceOptions(ServiceOptions base = {}) const;

 private:
  struct PendingEnvelope {
    std::uint64_t release = 0;
    std::uint64_t index = 0;
    int copy = 0;
    std::vector<std::uint8_t> bytes;
  };
  struct LaterRelease {
    bool operator()(const PendingEnvelope& a,
                    const PendingEnvelope& b) const {
      if (a.release != b.release) return a.release > b.release;
      if (a.index != b.index) return a.index > b.index;
      return a.copy > b.copy;
    }
  };

  explicit ReportStream(ReportStreamOptions options);

  PayloadCodecOptions CodecOptions() const;

  /// Envelope bytes of logical report `index` — pure in (options, index).
  Status Generate(std::uint64_t index, std::vector<std::uint8_t>* out);
  /// The payload arms of Generate, drawing from the report's Rng (the
  /// compact draw layouts are documented at the definition; frozen).
  Result<std::vector<std::uint8_t>> NumericPayload(Rng* rng);
  Result<std::vector<std::uint8_t>> CompactPayload(Rng* rng);

  ReportStreamOptions options_;
  std::size_t report_dims_ = 0;  // m, resolved from options_.report_dims
  std::optional<protocol::Client> client_;  // numeric kMean only
  mech::SamplerPlan plan_;  // numeric kFrequency per-entry perturbation
  std::optional<PayloadCodec> codec_;  // compact encodings only
  mech::DomainMap domain_map_;
  mech::Interval output_;  // numeric admissible value range
  data::ReportFaultSchedule fault_schedule_;

  std::uint64_t next_index_ = 0;  // next logical report to generate
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  std::priority_queue<PendingEnvelope, std::vector<PendingEnvelope>,
                      LaterRelease>
      pending_;

  // Reused per-report scratch.
  std::vector<double> tuple_;
  std::vector<std::uint32_t> sampled_;
  std::vector<double> gathered_;  // kHadamard1 sampled values
};

/// \brief When a Drive snapshots and where it stops. Both count
/// envelopes by ReportStream::position(); 0 turns either off.
struct DriveOptions {
  /// SaveSnapshot(position) at every multiple of this position.
  std::uint64_t snapshot_every = 0;
  /// Stop without draining once the position reaches this: a crash
  /// point, after which only the last snapshot survives.
  std::uint64_t stop_at = 0;
};

/// How a Drive ended.
enum class DriveEnd {
  kDrained,  // the stream ran out and the service drained
  kStopped,  // the position reached stop_at; nothing was drained
};

/// \brief Feeds `stream` to `service`: the loop `serve`, `replay` and the
/// tests share. A resumed service first moves the fresh stream to its
/// resume_cursor(). Then, per envelope: Submit; AdvanceWatermark when
/// position / reports_per_tick() grows; SaveSnapshot(position) at each
/// multiple of `snapshot_every`; stop at `stop_at`. An exhausted stream
/// ends in Drain. Submit's Unavailable (a shed report) and DataLoss (a
/// malformed envelope) are counted outcomes that the service's stats
/// hold; any other error ends the drive and is returned.
Result<DriveEnd> Drive(ReportStream* stream, AggregationService* service,
                       DriveOptions options = {});

}  // namespace service
}  // namespace hdldp

#endif  // HDLDP_SERVICE_REPORT_STREAM_H_
