// service::PayloadCodec — the service-side decoder for the compact
// report encodings (protocol/wire.h kinds 2-4).
//
// The aggregation service folds protocol::UserReport entries through a
// MeanAggregator, so each compact payload is decoded into the entries of
// an *unbiased per-report estimate*: averaging the decoded values over
// the reports covering a dimension reproduces the oracle's closed-form
// estimator exactly (integer support counts divided by report counts).
//
//   OUE        bit b of category k   ->  (b - q) / (p - q)
//   OLH        reported bucket v     ->  (1[hash(k) == v] - 1/g) / (p - 1/g)
//   Hadamard1  sign bit at index i   ->  bit * m * (1/c) * H(i, pos)
//
// Decoded values land directly in the data domain (frequencies for the
// oracles, [-1, 1] means for Hadamard), so the service runs with an
// identity DomainMap and the codec's output_lo/hi as the admissible
// range. Geometry mismatches (wrong cardinality, wrong g for the
// configured epsilon, wrong dimensionality) are decode errors — a report
// from a differently-configured client never silently biases estimates.

#ifndef HDLDP_SERVICE_PAYLOAD_CODEC_H_
#define HDLDP_SERVICE_PAYLOAD_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/result.h"
#include "freq/encoding.h"
#include "protocol/hadamard.h"
#include "protocol/report.h"
#include "protocol/wire.h"

namespace hdldp {
namespace service {

/// \brief Geometry + budget of the compact encoding a service instance
/// ingests. kDense means "payloads are version-1 numeric reports" and
/// needs none of the other fields.
struct PayloadCodecOptions {
  protocol::ReportEncoding encoding = protocol::ReportEncoding::kDense;
  /// Total per-report privacy budget eps (compact encodings only).
  double epsilon = 0.0;
  /// Sampled dimensions/questions per report m (compact encodings only).
  std::size_t report_dims = 0;
  /// kOue/kOlh: question count q and per-question category count c. The
  /// service aggregates over q * c one-hot entries.
  std::size_t num_questions = 0;
  std::size_t num_categories = 0;
  /// kHadamard1: mean dimensionality d.
  std::size_t num_dims = 0;
};

/// \brief Validated decoder built from PayloadCodecOptions. Stateless
/// after Create; Decode is const and thread-safe (workers share one).
class PayloadCodec {
 public:
  /// Rejects kDense (no codec needed) and inconsistent
  /// geometry/budget.
  static Result<PayloadCodec> Create(const PayloadCodecOptions& options);

  protocol::ReportEncoding encoding() const { return options_.encoding; }

  /// Aggregated dimensionality the service must run at: q * c for the
  /// frequency oracles, d for Hadamard.
  std::size_t service_dims() const { return service_dims_; }
  /// Entries one decoded report carries: m * c or m.
  std::size_t expected_entries() const { return expected_entries_; }
  /// Admissible decoded value range (the two-point support of each
  /// unbiased entry estimate).
  double output_lo() const { return output_lo_; }
  double output_hi() const { return output_hi_; }

  /// The encoder parameters the configured budget and geometry derive
  /// (only the one matching encoding() is meaningful) — what a client
  /// producing this codec's payloads encodes with.
  const freq::OueParams& oue() const { return oue_; }
  const freq::OlhParams& olh() const { return olh_; }
  const protocol::Hadamard1Params& hadamard() const { return hadamard_; }

  /// \brief Decodes one wire payload into unbiased report entries.
  /// InvalidArgument/DataLoss on malformed bytes or geometry mismatch.
  Result<protocol::UserReport> Decode(
      std::span<const std::uint8_t> payload) const;

  /// \brief Decode into a caller-owned report: replaces out->entries,
  /// reusing their storage (the service keeps one per worker). Same
  /// checks and Status; *out is unspecified after an error.
  Status Decode(std::span<const std::uint8_t> payload,
                protocol::UserReport* out) const;

 private:
  explicit PayloadCodec(PayloadCodecOptions options);

  PayloadCodecOptions options_;
  freq::OueParams oue_;
  freq::OlhParams olh_;
  protocol::Hadamard1Params hadamard_;
  std::size_t service_dims_ = 0;
  std::size_t expected_entries_ = 0;
  double output_lo_ = 0.0;
  double output_hi_ = 0.0;
};

}  // namespace service
}  // namespace hdldp

#endif  // HDLDP_SERVICE_PAYLOAD_CODEC_H_
