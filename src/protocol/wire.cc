#include "protocol/wire.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/bytes.h"
#include "common/crc32c.h"

namespace hdldp {
namespace protocol {

namespace {

void PutVarint(std::uint64_t value, std::vector<std::uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(value));
}

// Reads from the decoder's reader; a varint has its own truncation
// message, distinct from the reader's fixed-width one.
Result<std::uint64_t> GetVarint(ByteReader* in) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (in->remaining() == 0) {
      return Status::OutOfRange("wire: truncated varint");
    }
    if (shift >= 64) {
      return Status::InvalidArgument("wire: varint overflows 64 bits");
    }
    HDLDP_ASSIGN_OR_RETURN(const std::uint8_t byte, in->U8());
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical encodings (a trailing 0x00 continuation).
      if (byte == 0 && shift != 0) {
        return Status::InvalidArgument("wire: non-canonical varint");
      }
      return value;
    }
    shift += 7;
  }
}

// Shared varint-u32 read with a range check (dimensions, cardinalities
// and hash parameters are all 32-bit on the wire).
Result<std::uint32_t> GetVarint32(ByteReader* in, const char* what) {
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t value, GetVarint(in));
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    return Status::OutOfRange(std::string("wire: ") + what +
                              " exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(value);
}

// The compact payloads share their dimension framing: m ascending
// delta-encoded dimensions below num_dims. Returns the absolute
// dimension of entry i given the previous one.
Result<std::uint32_t> NextDimension(ByteReader* in, std::size_t i,
                                    std::uint64_t num_dims,
                                    std::uint64_t* previous) {
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t delta, GetVarint(in));
  std::uint64_t dimension = delta;
  if (i != 0) {
    if (delta == 0) {
      return Status::InvalidArgument("wire: duplicate dimension");
    }
    dimension = *previous + delta;
  }
  if (dimension >= num_dims) {
    return Status::OutOfRange("wire: dimension exceeds report width");
  }
  *previous = dimension;
  return static_cast<std::uint32_t>(dimension);
}

}  // namespace

const char* ReportEncodingName(ReportEncoding encoding) {
  switch (encoding) {
    case ReportEncoding::kDense:
      return "dense";
    case ReportEncoding::kOue:
      return "oue";
    case ReportEncoding::kOlh:
      return "olh";
    case ReportEncoding::kHadamard1:
      return "hadamard1";
  }
  return "unknown";
}

Status CheckEncoding(Workload workload, ReportEncoding encoding) {
  if (workload == Workload::kFrequency) {
    if (encoding == ReportEncoding::kHadamard1) {
      return Status::InvalidArgument(
          "hadamard1 is a mean encoding; frequency estimation supports "
          "dense|oue|olh");
    }
  } else if (encoding == ReportEncoding::kOue ||
             encoding == ReportEncoding::kOlh) {
    return Status::InvalidArgument(
        "oue/olh are frequency-oracle encodings; mean estimation supports "
        "dense|hadamard1");
  }
  return Status::OK();
}

Result<ReportEncoding> ParseReportEncoding(const std::string& name) {
  if (name == "dense") return ReportEncoding::kDense;
  if (name == "oue") return ReportEncoding::kOue;
  if (name == "olh") return ReportEncoding::kOlh;
  if (name == "hadamard1") return ReportEncoding::kHadamard1;
  return Status::InvalidArgument(
      "unknown report encoding '" + name +
      "' (expected dense|oue|olh|hadamard1)");
}

Result<ReportEncoding> PayloadEncoding(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) {
    return Status::OutOfRange("wire: empty buffer");
  }
  switch (bytes[0]) {
    case kWireVersion:
      return ReportEncoding::kDense;
    case kWireVersionOue:
      return ReportEncoding::kOue;
    case kWireVersionOlh:
      return ReportEncoding::kOlh;
    case kWireVersionHadamard1:
      return ReportEncoding::kHadamard1;
  }
  return Status::InvalidArgument("wire: unsupported payload version " +
                                 std::to_string(bytes[0]));
}

Result<std::vector<std::uint8_t>> EncodeReport(const UserReport& report) {
  std::vector<DimensionReport> entries = report.entries;
  std::sort(entries.begin(), entries.end(),
            [](const DimensionReport& a, const DimensionReport& b) {
              return a.dimension < b.dimension;
            });
  for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
    if (entries[i].dimension == entries[i + 1].dimension) {
      return Status::InvalidArgument("wire: report repeats a dimension");
    }
  }
  for (const DimensionReport& entry : entries) {
    if (std::isnan(entry.value)) {
      return Status::InvalidArgument("wire: NaN report value");
    }
  }
  std::vector<std::uint8_t> out;
  out.reserve(2 + entries.size() * 10);
  out.push_back(kWireVersion);
  PutVarint(entries.size(), &out);
  ByteWriter writer(&out);
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::uint64_t dim = entries[i].dimension;
    PutVarint(i == 0 ? dim : dim - previous, &out);
    writer.F64(entries[i].value);
    previous = dim;
  }
  return out;
}

Result<UserReport> DecodeReport(std::span<const std::uint8_t> bytes) {
  UserReport report;
  HDLDP_RETURN_NOT_OK(DecodeReport(bytes, &report));
  return report;
}

Status DecodeReport(std::span<const std::uint8_t> bytes, UserReport* out) {
  if (bytes.empty()) {
    return Status::OutOfRange("wire: empty buffer");
  }
  const std::uint8_t version = bytes[0];
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported version " +
                                   std::to_string(version));
  }
  ByteReader in(bytes.subspan(1), StatusCode::kOutOfRange,
                "wire: truncated value");
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t count, GetVarint(&in));
  // Each entry needs at least 9 bytes; reject absurd counts before
  // reserving memory.
  if (count > in.remaining() / 9 + 1) {
    return Status::InvalidArgument("wire: entry count exceeds buffer");
  }
  std::vector<DimensionReport>& entries = out->entries;
  entries.clear();
  entries.reserve(count);
  std::uint64_t dimension = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    HDLDP_ASSIGN_OR_RETURN(const std::uint64_t delta, GetVarint(&in));
    if (i == 0) {
      dimension = delta;
    } else {
      if (delta == 0) {
        return Status::InvalidArgument("wire: duplicate dimension");
      }
      dimension += delta;
    }
    if (dimension > std::numeric_limits<std::uint32_t>::max()) {
      return Status::OutOfRange("wire: dimension exceeds 32 bits");
    }
    HDLDP_ASSIGN_OR_RETURN(const double value, in.F64());
    if (std::isnan(value)) {
      return Status::InvalidArgument("wire: NaN report value");
    }
    entries.push_back(
        DimensionReport{static_cast<std::uint32_t>(dimension), value});
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("wire: trailing bytes after report");
  }
  return Status::OK();
}

Result<std::vector<std::uint8_t>> EncodeOuePayload(const OuePayload& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + payload.dims.size() * 8);
  out.push_back(kWireVersionOue);
  PutVarint(payload.num_dims, &out);
  PutVarint(payload.dims.size(), &out);
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < payload.dims.size(); ++i) {
    const OuePayloadDim& dim = payload.dims[i];
    if (dim.dimension >= payload.num_dims) {
      return Status::InvalidArgument("wire: OUE dimension exceeds width");
    }
    if (i != 0 && dim.dimension <= previous) {
      return Status::InvalidArgument("wire: OUE dimensions must ascend");
    }
    if (dim.cardinality < 2) {
      return Status::InvalidArgument("wire: OUE cardinality below 2");
    }
    if (dim.bits.size() != (dim.cardinality + 7u) / 8u) {
      return Status::InvalidArgument("wire: OUE bit vector length mismatch");
    }
    PutVarint(i == 0 ? dim.dimension : dim.dimension - previous, &out);
    PutVarint(dim.cardinality, &out);
    out.insert(out.end(), dim.bits.begin(), dim.bits.end());
    previous = dim.dimension;
  }
  return out;
}

Result<OuePayload> DecodeOuePayload(std::span<const std::uint8_t> bytes) {
  if (bytes.empty() || bytes[0] != kWireVersionOue) {
    return Status::InvalidArgument("wire: not an OUE payload");
  }
  ByteReader in(bytes.subspan(1), StatusCode::kOutOfRange,
                "wire: truncated OUE bit vector");
  OuePayload payload;
  HDLDP_ASSIGN_OR_RETURN(payload.num_dims, GetVarint(&in));
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t count, GetVarint(&in));
  // Each carried dimension needs at least 3 bytes (delta, cardinality,
  // one bit byte); reject absurd counts before reserving memory.
  if (count > payload.num_dims || count > in.remaining() / 3 + 1) {
    return Status::InvalidArgument("wire: OUE entry count exceeds buffer");
  }
  payload.dims.reserve(count);
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    OuePayloadDim dim;
    HDLDP_ASSIGN_OR_RETURN(dim.dimension,
                           NextDimension(&in, i, payload.num_dims, &previous));
    HDLDP_ASSIGN_OR_RETURN(dim.cardinality,
                           GetVarint32(&in, "OUE cardinality"));
    if (dim.cardinality < 2) {
      return Status::InvalidArgument("wire: OUE cardinality below 2");
    }
    HDLDP_ASSIGN_OR_RETURN(const std::span<const std::uint8_t> bits,
                           in.Bytes((dim.cardinality + 7u) / 8u));
    dim.bits.assign(bits.begin(), bits.end());
    // Bits past the cardinality must be zero so a payload has exactly one
    // encoding.
    if ((dim.cardinality & 7u) != 0 &&
        (dim.bits.back() >> (dim.cardinality & 7u)) != 0) {
      return Status::InvalidArgument("wire: OUE padding bits set");
    }
    payload.dims.push_back(std::move(dim));
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("wire: trailing bytes after OUE payload");
  }
  return payload;
}

Result<std::vector<std::uint8_t>> EncodeOlhPayload(const OlhPayload& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(3 + payload.dims.size() * 8);
  out.push_back(kWireVersionOlh);
  PutVarint(payload.num_dims, &out);
  PutVarint(payload.dims.size(), &out);
  ByteWriter writer(&out);
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < payload.dims.size(); ++i) {
    const OlhPayloadDim& dim = payload.dims[i];
    if (dim.dimension >= payload.num_dims) {
      return Status::InvalidArgument("wire: OLH dimension exceeds width");
    }
    if (i != 0 && dim.dimension <= previous) {
      return Status::InvalidArgument("wire: OLH dimensions must ascend");
    }
    if (dim.g < 2 || dim.value >= dim.g) {
      return Status::InvalidArgument("wire: OLH bucket out of range");
    }
    PutVarint(i == 0 ? dim.dimension : dim.dimension - previous, &out);
    PutVarint(dim.g, &out);
    writer.U32(dim.hash_seed);
    PutVarint(dim.value, &out);
    previous = dim.dimension;
  }
  return out;
}

Result<OlhPayload> DecodeOlhPayload(std::span<const std::uint8_t> bytes) {
  if (bytes.empty() || bytes[0] != kWireVersionOlh) {
    return Status::InvalidArgument("wire: not an OLH payload");
  }
  ByteReader in(bytes.subspan(1), StatusCode::kOutOfRange,
                "wire: truncated u32");
  OlhPayload payload;
  HDLDP_ASSIGN_OR_RETURN(payload.num_dims, GetVarint(&in));
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t count, GetVarint(&in));
  // Each carried dimension needs at least 7 bytes (delta, g, seed, value).
  if (count > payload.num_dims || count > in.remaining() / 7 + 1) {
    return Status::InvalidArgument("wire: OLH entry count exceeds buffer");
  }
  payload.dims.reserve(count);
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    OlhPayloadDim dim;
    HDLDP_ASSIGN_OR_RETURN(dim.dimension,
                           NextDimension(&in, i, payload.num_dims, &previous));
    HDLDP_ASSIGN_OR_RETURN(dim.g, GetVarint32(&in, "OLH domain"));
    HDLDP_ASSIGN_OR_RETURN(dim.hash_seed, in.U32());
    HDLDP_ASSIGN_OR_RETURN(dim.value, GetVarint32(&in, "OLH bucket"));
    if (dim.g < 2 || dim.value >= dim.g) {
      return Status::InvalidArgument("wire: OLH bucket out of range");
    }
    payload.dims.push_back(dim);
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("wire: trailing bytes after OLH payload");
  }
  return payload;
}

Result<std::vector<std::uint8_t>> EncodeHadamard1Payload(
    const Hadamard1Payload& payload) {
  if (payload.report_dims == 0 || payload.report_dims > payload.num_dims) {
    return Status::InvalidArgument(
        "wire: Hadamard report_dims out of range");
  }
  std::vector<std::uint8_t> out;
  out.reserve(12);
  out.push_back(kWireVersionHadamard1);
  PutVarint(payload.num_dims, &out);
  PutVarint(payload.report_dims, &out);
  ByteWriter(&out).U32(payload.sample_seed);
  PutVarint((static_cast<std::uint64_t>(payload.index) << 1) |
                (payload.positive ? 1 : 0),
            &out);
  return out;
}

Result<Hadamard1Payload> DecodeHadamard1Payload(
    std::span<const std::uint8_t> bytes) {
  if (bytes.empty() || bytes[0] != kWireVersionHadamard1) {
    return Status::InvalidArgument("wire: not a Hadamard payload");
  }
  ByteReader in(bytes.subspan(1), StatusCode::kOutOfRange,
                "wire: truncated u32");
  Hadamard1Payload payload;
  HDLDP_ASSIGN_OR_RETURN(payload.num_dims,
                         GetVarint32(&in, "Hadamard width"));
  HDLDP_ASSIGN_OR_RETURN(payload.report_dims,
                         GetVarint32(&in, "Hadamard report_dims"));
  if (payload.report_dims == 0 || payload.report_dims > payload.num_dims) {
    return Status::InvalidArgument(
        "wire: Hadamard report_dims out of range");
  }
  HDLDP_ASSIGN_OR_RETURN(payload.sample_seed, in.U32());
  HDLDP_ASSIGN_OR_RETURN(const std::uint64_t packed, GetVarint(&in));
  if ((packed >> 1) > std::numeric_limits<std::uint32_t>::max()) {
    return Status::OutOfRange("wire: Hadamard index exceeds 32 bits");
  }
  payload.index = static_cast<std::uint32_t>(packed >> 1);
  payload.positive = (packed & 1) != 0;
  if (in.remaining() != 0) {
    return Status::InvalidArgument(
        "wire: trailing bytes after Hadamard payload");
  }
  return payload;
}

std::vector<std::uint8_t> EncodeEnvelope(const ReportEnvelope& envelope) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 4 * 10 + envelope.payload.size() + 4);
  out.push_back(kEnvelopeVersion);
  PutVarint(envelope.tenant, &out);
  PutVarint(envelope.sequence, &out);
  PutVarint(envelope.tick, &out);
  PutVarint(envelope.payload.size(), &out);
  out.insert(out.end(), envelope.payload.begin(), envelope.payload.end());
  ByteWriter(&out).U32(Crc32c(out.data(), out.size()));
  return out;
}

Result<EnvelopeView> ParseEnvelope(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 1 + 4 + 4) {
    return Status::DataLoss("wire: envelope shorter than its framing");
  }
  const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 4);
  ByteReader trailer(bytes.subspan(body.size()), StatusCode::kDataLoss,
                     "wire: envelope shorter than its framing");
  HDLDP_ASSIGN_OR_RETURN(const std::uint32_t stored_crc, trailer.U32());
  if (Crc32c(body.data(), body.size()) != stored_crc) {
    return Status::DataLoss("wire: envelope checksum mismatch");
  }
  // Past the CRC, framing errors can only come from an encoder bug, but
  // the checks stay: DataLoss here is still better than UB there.
  const std::uint8_t version = body[0];
  if (version != kEnvelopeVersion) {
    return Status::DataLoss("wire: unsupported envelope version " +
                            std::to_string(version));
  }
  ByteReader in(body.subspan(1), StatusCode::kDataLoss,
                "wire: torn envelope header");
  const auto get_field = [&in](std::uint64_t* field) -> Status {
    auto value = GetVarint(&in);
    if (!value.ok()) return Status::DataLoss("wire: torn envelope header");
    *field = value.value();
    return Status::OK();
  };
  EnvelopeView envelope;
  HDLDP_RETURN_NOT_OK(get_field(&envelope.tenant));
  HDLDP_RETURN_NOT_OK(get_field(&envelope.sequence));
  HDLDP_RETURN_NOT_OK(get_field(&envelope.tick));
  std::uint64_t payload_size = 0;
  HDLDP_RETURN_NOT_OK(get_field(&payload_size));
  if (payload_size != in.remaining()) {
    return Status::DataLoss("wire: envelope payload length mismatch");
  }
  HDLDP_ASSIGN_OR_RETURN(envelope.payload, in.Bytes(payload_size));
  return envelope;
}

Result<ReportEnvelope> DecodeEnvelope(std::span<const std::uint8_t> bytes) {
  HDLDP_ASSIGN_OR_RETURN(const EnvelopeView view, ParseEnvelope(bytes));
  ReportEnvelope envelope;
  envelope.tenant = view.tenant;
  envelope.sequence = view.sequence;
  envelope.tick = view.tick;
  envelope.payload.assign(view.payload.begin(), view.payload.end());
  return envelope;
}

}  // namespace protocol
}  // namespace hdldp
