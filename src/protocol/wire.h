// Wire format for user reports.
//
// A real deployment ships reports from devices to the collector; this
// module provides a compact, versioned, self-delimiting binary encoding.
// The version byte doubles as the payload kind:
//
//   1  dense values    [u8 1][varint m][m x ([varint dim][f64-LE value])]
//   2  OUE bit vectors [u8 2][varint d][varint m]
//                      [m x ([varint dim delta][varint cardinality]
//                            [ceil(cardinality/8) packed bits, LSB-first])]
//   3  OLH hash report [u8 3][varint d][varint m]
//                      [m x ([varint dim delta][varint g]
//                            [u32-LE hash seed][varint value])]
//   4  Hadamard 1-bit  [u8 4][varint d][varint m][u32-LE sample seed]
//                      [varint (index << 1 | sign bit)]
//
// Version 1 carries perturbed doubles (the numeric path, whatever its
// m of d). Versions 2-4 are the communication-efficient encodings: a
// report shrinks from m x 9ish bytes to a few bits per carried category
// (OUE), one small integer per carried dimension (OLH), or one packed
// (index, sign) pair for the whole report (Hadamard). Dimensions are
// delta-encoded in ascending order (reports are sorted on encode), which
// keeps the varints small. Decoding validates shape strictly — truncated
// buffers, non-canonical varints, descending dimensions and NaN values
// are all errors, never UB. (Infinite values decode; whether they are
// admissible is protocol::ValidateReport's call.)

#ifndef HDLDP_PROTOCOL_WIRE_H_
#define HDLDP_PROTOCOL_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "protocol/report.h"

namespace hdldp {
namespace protocol {

/// Dense-values wire-format version byte (payload kind 1).
inline constexpr std::uint8_t kWireVersion = 1;
/// Compact payload version bytes (kinds 2-4; see the file comment).
inline constexpr std::uint8_t kWireVersionOue = 2;
inline constexpr std::uint8_t kWireVersionOlh = 3;
inline constexpr std::uint8_t kWireVersionHadamard1 = 4;

/// \brief Report encoding selector, spanning client, wire and service.
/// kDense ships version-1 double payloads: the numeric perturbation path,
/// carrying report_dims = m of the d entries (m < d is still kDense). The
/// remaining values select the compact payload kinds above. The numbers
/// are pinned: the service's checkpoint digest hashes them.
enum class ReportEncoding {
  kDense = 0,
  kOue = 2,
  kOlh = 3,
  kHadamard1 = 4,
};

/// The statistic a run or a report stream estimates. A variance run is
/// two kMean runs (hdr4me/variance.h).
enum class Workload { kMean, kFrequency };

/// \brief The one encoding rule: each statistic accepts only its own
/// encodings — mean dense|hadamard1, frequency dense|oue|olh.
/// InvalidArgument otherwise.
Status CheckEncoding(Workload workload, ReportEncoding encoding);

/// \brief Human-readable encoding name (CLI flag spelling).
const char* ReportEncodingName(ReportEncoding encoding);

/// \brief Parses the CLI flag spelling (dense|oue|olh|hadamard1).
Result<ReportEncoding> ParseReportEncoding(const std::string& name);

/// \brief Peeks a payload's kind from its version byte without decoding.
/// Version 1 (value payloads, any m of d) maps to kDense.
Result<ReportEncoding> PayloadEncoding(std::span<const std::uint8_t> bytes);

/// \brief Serializes a report. Entries are sorted by dimension; duplicate
/// dimensions are rejected.
Result<std::vector<std::uint8_t>> EncodeReport(const UserReport& report);

/// \brief Parses a buffer produced by EncodeReport. The whole buffer must
/// be consumed (no trailing bytes).
Result<UserReport> DecodeReport(std::span<const std::uint8_t> bytes);

/// \brief DecodeReport into a caller-owned report: replaces out->entries,
/// reusing their storage, so a loop decoding into one report allocates
/// only when a report outgrows every earlier one. Same checks and
/// Status as above; *out is unspecified after an error.
Status DecodeReport(std::span<const std::uint8_t> bytes, UserReport* out);

/// \brief One carried dimension of an OUE payload: the perturbed unary
/// encoding of one categorical answer, bit k = "category k reported 1".
struct OuePayloadDim {
  std::uint32_t dimension = 0;
  std::uint32_t cardinality = 0;
  /// ceil(cardinality / 8) bytes, LSB-first within each byte.
  std::vector<std::uint8_t> bits;

  bool Bit(std::size_t k) const {
    return (bits[k >> 3] >> (k & 7)) & 1;
  }
  void SetBit(std::size_t k) { bits[k >> 3] |= std::uint8_t(1) << (k & 7); }
};

/// \brief An OUE report: m of num_dims categorical dimensions, each with
/// its perturbed bit vector. Dimensions ascend.
struct OuePayload {
  std::uint64_t num_dims = 0;
  std::vector<OuePayloadDim> dims;
};

Result<std::vector<std::uint8_t>> EncodeOuePayload(const OuePayload& payload);
Result<OuePayload> DecodeOuePayload(std::span<const std::uint8_t> bytes);

/// \brief One carried dimension of an OLH payload: the reported hash
/// bucket `value` in [0, g) under `hash_seed`.
struct OlhPayloadDim {
  std::uint32_t dimension = 0;
  std::uint32_t g = 0;
  std::uint32_t hash_seed = 0;
  std::uint32_t value = 0;
};

/// \brief An OLH report: m of num_dims categorical dimensions, one
/// (seed, bucket) pair each. Dimensions ascend.
struct OlhPayload {
  std::uint64_t num_dims = 0;
  std::vector<OlhPayloadDim> dims;
};

Result<std::vector<std::uint8_t>> EncodeOlhPayload(const OlhPayload& payload);
Result<OlhPayload> DecodeOlhPayload(std::span<const std::uint8_t> bytes);

/// \brief A Hadamard 1-bit mean report: the user's report_dims sampled
/// dimensions are recoverable from sample_seed (protocol/hadamard.h),
/// and the single sign bit carries the randomized-response outcome of
/// Hadamard row `index` over those dimensions' values.
struct Hadamard1Payload {
  std::uint32_t num_dims = 0;
  std::uint32_t report_dims = 0;
  std::uint32_t sample_seed = 0;
  std::uint32_t index = 0;
  bool positive = false;
};

Result<std::vector<std::uint8_t>> EncodeHadamard1Payload(
    const Hadamard1Payload& payload);
Result<Hadamard1Payload> DecodeHadamard1Payload(
    std::span<const std::uint8_t> bytes);

/// Envelope framing version byte.
inline constexpr std::uint8_t kEnvelopeVersion = 1;

/// \brief One report as shipped to the aggregation service: the ingestion
/// metadata the service routes, dedups, and windows on, wrapping an
/// EncodeReport payload.
///
/// Framing (everything after the version byte varint/LE as in the report
/// codec, closed by a CRC32C so transport corruption surfaces as a typed
/// DataLoss instead of a perturbed estimate):
///
///   [u8 version=1][varint tenant][varint sequence][varint tick]
///   [varint payload length][payload bytes][u32-LE CRC32C of all above]
struct ReportEnvelope {
  /// Tenant the report's budget charges against.
  std::uint64_t tenant = 0;
  /// Per-tenant sequence number; (tenant, sequence) identifies the report
  /// for idempotent ingestion — retransmits carry the same pair.
  std::uint64_t sequence = 0;
  /// Event-time tick assigning the report to tumbling/sliding windows.
  std::uint64_t tick = 0;
  /// EncodeReport bytes (opaque to the framing layer).
  std::vector<std::uint8_t> payload;
};

/// \brief An envelope parsed in place: the header fields plus a view of
/// the payload bytes inside the parsed buffer (valid while that buffer
/// is).
struct EnvelopeView {
  std::uint64_t tenant = 0;
  std::uint64_t sequence = 0;
  std::uint64_t tick = 0;
  std::span<const std::uint8_t> payload;
};

/// \brief Serializes an envelope (payload is framed as-is).
std::vector<std::uint8_t> EncodeEnvelope(const ReportEnvelope& envelope);

/// \brief Parses a buffer produced by EncodeEnvelope without copying the
/// payload. Truncation and any checksum mismatch are DataLoss; the
/// payload is NOT decoded.
Result<EnvelopeView> ParseEnvelope(std::span<const std::uint8_t> bytes);

/// \brief ParseEnvelope with the payload copied out: the same checks and
/// Status (call DecodeReport on envelope.payload).
Result<ReportEnvelope> DecodeEnvelope(std::span<const std::uint8_t> bytes);

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_WIRE_H_
