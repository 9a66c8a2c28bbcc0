#include "service/payload_codec.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace hdldp {
namespace service {

PayloadCodec::PayloadCodec(PayloadCodecOptions options)
    : options_(std::move(options)) {}

Result<PayloadCodec> PayloadCodec::Create(const PayloadCodecOptions& options) {
  using protocol::ReportEncoding;
  if (options.encoding == ReportEncoding::kDense) {
    return Status::InvalidArgument(
        "numeric payloads need no codec; construct one only for "
        "oue|olh|hadamard1");
  }
  if (options.report_dims == 0) {
    return Status::InvalidArgument("payload codec requires report_dims > 0");
  }
  PayloadCodec codec(options);
  if (options.encoding == ReportEncoding::kHadamard1) {
    HDLDP_ASSIGN_OR_RETURN(
        codec.hadamard_,
        protocol::Hadamard1Params::Create(options.num_dims,
                                          options.report_dims,
                                          options.epsilon));
    codec.service_dims_ = options.num_dims;
    codec.expected_entries_ = options.report_dims;
    codec.output_hi_ = codec.hadamard_.bound * codec.hadamard_.c_inv;
    codec.output_lo_ = -codec.output_hi_;
    return codec;
  }
  // Frequency oracles: per-question budget eps / m.
  if (options.num_questions == 0 || options.num_categories < 2) {
    return Status::InvalidArgument(
        "frequency-oracle codec requires num_questions > 0 and "
        "num_categories >= 2");
  }
  if (options.report_dims > options.num_questions) {
    return Status::InvalidArgument(
        "report_dims exceeds the question count");
  }
  const double per_dim_epsilon =
      options.epsilon / static_cast<double>(options.report_dims);
  codec.service_dims_ = options.num_questions * options.num_categories;
  codec.expected_entries_ = options.report_dims * options.num_categories;
  if (options.encoding == ReportEncoding::kOue) {
    HDLDP_ASSIGN_OR_RETURN(codec.oue_,
                           freq::OueParams::FromEpsilon(per_dim_epsilon));
    codec.output_lo_ = codec.oue_.EntryValue(false);
    codec.output_hi_ = codec.oue_.EntryValue(true);
  } else {
    HDLDP_ASSIGN_OR_RETURN(codec.olh_,
                           freq::OlhParams::FromEpsilon(per_dim_epsilon));
    codec.output_lo_ = codec.olh_.EntryValue(false);
    codec.output_hi_ = codec.olh_.EntryValue(true);
  }
  return codec;
}

Result<protocol::UserReport> PayloadCodec::Decode(
    std::span<const std::uint8_t> payload) const {
  protocol::UserReport report;
  HDLDP_RETURN_NOT_OK(Decode(payload, &report));
  return report;
}

Status PayloadCodec::Decode(std::span<const std::uint8_t> payload,
                            protocol::UserReport* out) const {
  using protocol::ReportEncoding;
  HDLDP_ASSIGN_OR_RETURN(const ReportEncoding kind,
                         protocol::PayloadEncoding(payload));
  if (kind != options_.encoding) {
    return Status::InvalidArgument(
        "payload kind does not match the configured service encoding");
  }
  std::vector<protocol::DimensionReport>& entries = out->entries;
  entries.clear();
  switch (options_.encoding) {
    case ReportEncoding::kOue: {
      HDLDP_ASSIGN_OR_RETURN(const protocol::OuePayload decoded,
                             protocol::DecodeOuePayload(payload));
      if (decoded.num_dims != options_.num_questions ||
          decoded.dims.size() != options_.report_dims) {
        return Status::InvalidArgument(
            "OUE payload geometry mismatch (questions / sampled count)");
      }
      entries.reserve(expected_entries_);
      for (const protocol::OuePayloadDim& dim : decoded.dims) {
        if (dim.cardinality != options_.num_categories) {
          return Status::InvalidArgument(
              "OUE payload cardinality mismatch");
        }
        const std::size_t base = dim.dimension * options_.num_categories;
        for (std::size_t k = 0; k < options_.num_categories; ++k) {
          entries.push_back(protocol::DimensionReport{
              static_cast<std::uint32_t>(base + k),
              oue_.EntryValue(dim.Bit(k))});
        }
      }
      return Status::OK();
    }
    case ReportEncoding::kOlh: {
      HDLDP_ASSIGN_OR_RETURN(const protocol::OlhPayload decoded,
                             protocol::DecodeOlhPayload(payload));
      if (decoded.num_dims != options_.num_questions ||
          decoded.dims.size() != options_.report_dims) {
        return Status::InvalidArgument(
            "OLH payload geometry mismatch (questions / sampled count)");
      }
      entries.reserve(expected_entries_);
      for (const protocol::OlhPayloadDim& dim : decoded.dims) {
        if (dim.g != olh_.g) {
          return Status::InvalidArgument(
              "OLH payload g does not match the configured epsilon");
        }
        const std::size_t base = dim.dimension * options_.num_categories;
        const freq::OlhHasher hasher(dim.hash_seed);
        for (std::size_t k = 0; k < options_.num_categories; ++k) {
          const bool supports =
              hasher.Bucket(static_cast<std::uint32_t>(k), olh_.g) ==
              dim.value;
          entries.push_back(protocol::DimensionReport{
              static_cast<std::uint32_t>(base + k),
              olh_.EntryValue(supports)});
        }
      }
      return Status::OK();
    }
    case ReportEncoding::kHadamard1: {
      HDLDP_ASSIGN_OR_RETURN(const protocol::Hadamard1Payload decoded,
                             protocol::DecodeHadamard1Payload(payload));
      if (decoded.num_dims != hadamard_.num_dims ||
          decoded.report_dims != hadamard_.report_dims) {
        return Status::InvalidArgument(
            "Hadamard payload geometry mismatch (d / m)");
      }
      std::vector<std::uint32_t> dims;
      protocol::Hadamard1SampleDims(decoded.sample_seed, hadamard_.num_dims,
                                    hadamard_.report_dims, &dims);
      return protocol::Hadamard1Decode(hadamard_, dims, decoded.index,
                                       decoded.positive, out);
    }
    default:
      return Status::Internal("payload codec holds a numeric encoding");
  }
}

}  // namespace service
}  // namespace hdldp
