#include "service/report_stream.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "mech/registry.h"
#include "protocol/budget.h"

namespace hdldp {
namespace service {

namespace {

// Per-report generator seed: the SplitMix64 fate-hash pattern of
// FaultSchedule::Random under a stream-specific tag, so report i's Rng
// stream is independent of every other report's and of the fault fates
// (which hash under their own tags).
std::uint64_t ReportSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t mix = seed ^ (0x5EEDULL + 0x9e3779b97f4a7c15ULL * (index + 1));
  return SplitMix64(&mix);
}

}  // namespace

ReportStream::ReportStream(ReportStreamOptions options)
    : options_(std::move(options)) {}

Result<ReportStream> ReportStream::Create(const ReportStreamOptions& options) {
  if (options.num_dims == 0) {
    return Status::InvalidArgument("report stream requires num_dims > 0");
  }
  if (options.num_tenants == 0) {
    return Status::InvalidArgument("report stream requires num_tenants > 0");
  }
  HDLDP_ASSIGN_OR_RETURN(mech::MechanismPtr mechanism,
                         mech::MakeMechanism(options.mechanism));
  HDLDP_RETURN_NOT_OK(
      protocol::CheckEncoding(options.workload, options.encoding));
  const bool freq = options.workload == protocol::Workload::kFrequency;
  if (freq && options.num_categories < 2) {
    return Status::InvalidArgument("freq stream requires num_categories >= 2");
  }
  ReportStream stream(options);
  stream.report_dims_ =
      options.report_dims == 0 ? options.num_dims : options.report_dims;
  if (stream.report_dims_ > options.num_dims) {
    return Status::InvalidArgument(
        "report_dims exceeds the stream dimensionality");
  }
  const std::uint64_t fault_seed =
      options.fault_seed != 0 ? options.fault_seed : options.seed;
  stream.fault_schedule_ =
      data::ReportFaultSchedule(fault_seed, options.faults);
  if (options.encoding == protocol::ReportEncoding::kOue ||
      options.encoding == protocol::ReportEncoding::kOlh ||
      options.encoding == protocol::ReportEncoding::kHadamard1) {
    // Compact payloads decode straight into the data domain (identity
    // map); their geometry, encoder parameters and value range are the
    // codec's.
    HDLDP_ASSIGN_OR_RETURN(PayloadCodec codec,
                           PayloadCodec::Create(stream.CodecOptions()));
    stream.codec_.emplace(std::move(codec));
    return stream;
  }
  double per_entry_epsilon = 0.0;
  if (!freq) {
    protocol::ClientOptions client_options;
    client_options.total_epsilon = options.epsilon;
    client_options.report_dims = options.report_dims;
    HDLDP_ASSIGN_OR_RETURN(
        protocol::Client client,
        protocol::Client::Create(mechanism, options.num_dims,
                                 client_options));
    stream.domain_map_ = client.domain_map();
    per_entry_epsilon = client.PerDimensionEpsilon();
    stream.client_.emplace(std::move(client));
  } else {
    HDLDP_ASSIGN_OR_RETURN(per_entry_epsilon,
                           protocol::BudgetAccountant::PerEntryBudget(
                               options.epsilon, stream.report_dims_));
    HDLDP_RETURN_NOT_OK(mechanism->ValidateBudget(per_entry_epsilon));
    stream.plan_ = mechanism->MakePlan(per_entry_epsilon);
    // One-hot entries live in {0, 1}; map that onto the mechanism's
    // native input domain, exactly like the freq pipeline does.
    HDLDP_ASSIGN_OR_RETURN(
        stream.domain_map_,
        mech::DomainMap::Between(mech::Interval{0.0, 1.0},
                                 mechanism->InputDomain()));
  }
  HDLDP_ASSIGN_OR_RETURN(stream.output_,
                         mechanism->OutputDomain(per_entry_epsilon));
  return stream;
}

PayloadCodecOptions ReportStream::CodecOptions() const {
  PayloadCodecOptions codec;
  codec.encoding = options_.encoding;
  codec.epsilon = options_.epsilon;
  codec.report_dims = report_dims_;
  codec.num_questions = options_.num_dims;
  codec.num_categories = options_.num_categories;
  codec.num_dims = options_.num_dims;
  return codec;
}

ServiceOptions ReportStream::MakeServiceOptions(ServiceOptions base) const {
  base.domain_map = domain_map_;
  base.codec = CodecOptions();
  if (codec_.has_value()) {
    base.num_dims = codec_->service_dims();
    base.expected_entries = codec_->expected_entries();
    base.output_lo = codec_->output_lo();
    base.output_hi = codec_->output_hi();
  } else {
    const std::size_t c = options_.workload == protocol::Workload::kFrequency
                              ? options_.num_categories
                              : 1;
    base.num_dims = options_.num_dims * c;
    base.expected_entries = report_dims_ * c;
    base.output_lo = output_.lo;
    base.output_hi = output_.hi;
  }
  char tag[256];
  std::snprintf(
      tag, sizeof(tag),
      "stream %s enc=%s %s n=%llu eps=%.17g m=%zu seed=%llu t=%llu "
      "rpt=%llu drop=%.17g dup=%.17g reord=%.17g delay=%zu fseed=%llu",
      options_.workload == protocol::Workload::kMean ? "mean" : "freq",
      protocol::ReportEncodingName(options_.encoding),
      options_.mechanism.c_str(),
      static_cast<unsigned long long>(options_.num_reports),
      options_.epsilon, options_.report_dims,
      static_cast<unsigned long long>(options_.seed),
      static_cast<unsigned long long>(options_.num_tenants),
      static_cast<unsigned long long>(options_.reports_per_tick),
      options_.faults.drop_rate, options_.faults.duplicate_rate,
      options_.faults.reorder_rate, options_.faults.reorder_delay,
      static_cast<unsigned long long>(options_.fault_seed));
  base.digest_tag = tag;
  return base;
}

// Compact-payload report bytes. Draw layout per report stream (frozen,
// like the numeric layouts — recorded faulted runs replay these draws):
//
//   kHadamard1: d tuple uniforms, one raw Next() whose high 32 bits are
//   the sample seed (dimensions then come from Hadamard1SampleDims, no
//   stream draws), then the Hadamard1Encode pair (row index, sign coin).
//
//   kOue/kOlh:  one Floyd SampleWithoutReplacement(q, m) walk, then per
//   sampled question IN DRAW ORDER one UniformInt(c) answer followed by
//   that question's OueEncodeDim / OlhEncodeDim draws; the payload dims
//   are sorted ascending only after all draws (wire framing order never
//   feeds back into the stream).
Result<std::vector<std::uint8_t>> ReportStream::CompactPayload(Rng* rng) {
  if (options_.encoding == protocol::ReportEncoding::kHadamard1) {
    const protocol::Hadamard1Params& hadamard = codec_->hadamard();
    tuple_.resize(options_.num_dims);
    for (double& v : tuple_) v = rng->Uniform(-1.0, 1.0);
    const std::uint32_t sample_seed =
        static_cast<std::uint32_t>(rng->Next() >> 32);
    protocol::Hadamard1SampleDims(sample_seed, hadamard.num_dims,
                                  hadamard.report_dims, &sampled_);
    gathered_.clear();
    for (const std::uint32_t dim : sampled_) gathered_.push_back(tuple_[dim]);
    const protocol::Hadamard1Report encoded =
        protocol::Hadamard1Encode(hadamard, gathered_, rng);
    protocol::Hadamard1Payload wire;
    wire.num_dims = static_cast<std::uint32_t>(options_.num_dims);
    wire.report_dims = static_cast<std::uint32_t>(hadamard.report_dims);
    wire.sample_seed = sample_seed;
    wire.index = encoded.index;
    wire.positive = encoded.positive;
    return protocol::EncodeHadamard1Payload(wire);
  }
  const std::size_t c = options_.num_categories;
  sampled_.clear();
  rng->SampleWithoutReplacement(options_.num_dims, report_dims_, &sampled_);
  if (options_.encoding == protocol::ReportEncoding::kOue) {
    protocol::OuePayload wire;
    wire.num_dims = options_.num_dims;
    wire.dims.reserve(report_dims_);
    for (const std::uint32_t question : sampled_) {
      const auto answer = static_cast<std::uint32_t>(rng->UniformInt(c));
      protocol::OuePayloadDim dim;
      dim.dimension = question;
      dim.cardinality = static_cast<std::uint32_t>(c);
      freq::OueEncodeDim(codec_->oue(), answer, c, rng, &dim.bits);
      wire.dims.push_back(std::move(dim));
    }
    std::sort(wire.dims.begin(), wire.dims.end(),
              [](const protocol::OuePayloadDim& a,
                 const protocol::OuePayloadDim& b) {
                return a.dimension < b.dimension;
              });
    return protocol::EncodeOuePayload(wire);
  }
  const freq::OlhParams& olh = codec_->olh();
  protocol::OlhPayload wire;
  wire.num_dims = options_.num_dims;
  wire.dims.reserve(report_dims_);
  for (const std::uint32_t question : sampled_) {
    const auto answer = static_cast<std::uint32_t>(rng->UniformInt(c));
    const freq::OlhDimReport encoded = freq::OlhEncodeDim(olh, answer, rng);
    wire.dims.push_back(protocol::OlhPayloadDim{
        question, static_cast<std::uint32_t>(olh.g), encoded.hash_seed,
        encoded.value});
  }
  std::sort(wire.dims.begin(), wire.dims.end(),
            [](const protocol::OlhPayloadDim& a,
               const protocol::OlhPayloadDim& b) {
              return a.dimension < b.dimension;
            });
  return protocol::EncodeOlhPayload(wire);
}

Result<std::vector<std::uint8_t>> ReportStream::NumericPayload(Rng* rng) {
  protocol::UserReport report;
  if (options_.workload == protocol::Workload::kMean) {
    tuple_.resize(options_.num_dims);
    for (double& v : tuple_) v = rng->Uniform(-1.0, 1.0);
    HDLDP_ASSIGN_OR_RETURN(report, client_->Report(tuple_, rng));
  } else {
    const std::size_t c = options_.num_categories;
    sampled_.clear();
    rng->SampleWithoutReplacement(options_.num_dims, report_dims_, &sampled_);
    report.entries.reserve(report_dims_ * c);
    for (const std::uint32_t question : sampled_) {
      const std::size_t answer =
          static_cast<std::size_t>(rng->UniformInt(c));
      for (std::size_t k = 0; k < c; ++k) {
        const double native =
            domain_map_.Forward(k == answer ? 1.0 : 0.0);
        report.entries.push_back(protocol::DimensionReport{
            static_cast<std::uint32_t>(question * c + k),
            mech::PerturbOne(plan_, native, rng)});
      }
    }
  }
  return protocol::EncodeReport(report);
}

Status ReportStream::Generate(std::uint64_t index,
                              std::vector<std::uint8_t>* out) {
  Rng rng(ReportSeed(options_.seed, index));
  protocol::ReportEnvelope envelope;
  HDLDP_ASSIGN_OR_RETURN(envelope.payload, codec_.has_value()
                                               ? CompactPayload(&rng)
                                               : NumericPayload(&rng));
  envelope.tenant = index % options_.num_tenants;
  envelope.sequence = index / options_.num_tenants;
  envelope.tick = options_.reports_per_tick == 0
                      ? 0
                      : index / options_.reports_per_tick;
  *out = protocol::EncodeEnvelope(envelope);
  return Status::OK();
}

Status ReportStream::Next(std::vector<std::uint8_t>* envelope, bool* done) {
  *done = false;
  for (;;) {
    // An envelope held back for release slot r arrives once generation
    // has passed r: every report still ungenerated has release >=
    // next_index_, so the heap top is final the moment its release falls
    // below the generation cursor (or the source runs dry).
    if (!pending_.empty() &&
        (next_index_ >= options_.num_reports ||
         pending_.top().release < next_index_)) {
      *envelope = pending_.top().bytes;
      pending_.pop();
      ++emitted_;
      return Status::OK();
    }
    if (next_index_ >= options_.num_reports) {
      *done = true;
      return Status::OK();
    }
    const std::uint64_t index = next_index_++;
    const data::ReportFate fate = fault_schedule_.Fate(index);
    if (fate.drop) {
      ++dropped_;
      continue;
    }
    PendingEnvelope item;
    item.index = index;
    item.release = index + fate.reorder_delay;
    if (fate.reorder_delay > 0) ++reordered_;
    HDLDP_RETURN_NOT_OK(Generate(index, &item.bytes));
    for (int copy = 1; copy <= fate.duplicates; ++copy) {
      PendingEnvelope dup;
      dup.index = index;
      dup.copy = copy;
      // A retransmit: identical bytes, arriving one slot later.
      dup.release = item.release + 1;
      dup.bytes = item.bytes;
      pending_.push(std::move(dup));
      ++duplicated_;
    }
    pending_.push(std::move(item));
  }
}

Status ReportStream::SkipTo(std::uint64_t position) {
  if (position < emitted_) {
    return Status::InvalidArgument(
        "ReportStream::SkipTo cannot rewind; create a fresh stream");
  }
  std::vector<std::uint8_t> scratch;
  while (emitted_ < position) {
    bool done = false;
    HDLDP_RETURN_NOT_OK(Next(&scratch, &done));
    if (done) {
      return Status::InvalidArgument(
          "SkipTo position lies beyond the end of the stream");
    }
  }
  return Status::OK();
}

Result<DriveEnd> Drive(ReportStream* stream, AggregationService* service,
                       DriveOptions options) {
  if (service->resumed()) {
    HDLDP_RETURN_NOT_OK(stream->SkipTo(service->resume_cursor()));
  }
  const std::uint64_t reports_per_tick = stream->reports_per_tick();
  std::vector<std::uint8_t> envelope;
  std::uint64_t watermark = 0;
  for (;;) {
    bool done = false;
    HDLDP_RETURN_NOT_OK(stream->Next(&envelope, &done));
    if (done) break;
    const Status submitted = service->Submit(envelope);
    if (!submitted.ok() && submitted.code() != StatusCode::kUnavailable &&
        submitted.code() != StatusCode::kDataLoss) {
      return submitted;
    }
    const std::uint64_t position = stream->position();
    if (reports_per_tick > 0 && position / reports_per_tick > watermark) {
      watermark = position / reports_per_tick;
      HDLDP_RETURN_NOT_OK(service->AdvanceWatermark(watermark));
    }
    if (options.snapshot_every > 0 && position % options.snapshot_every == 0) {
      HDLDP_RETURN_NOT_OK(service->SaveSnapshot(position));
    }
    if (options.stop_at > 0 && position >= options.stop_at) {
      return DriveEnd::kStopped;
    }
  }
  HDLDP_RETURN_NOT_OK(service->Drain());
  return DriveEnd::kDrained;
}

}  // namespace service
}  // namespace hdldp
