// Wire types exchanged between clients (users) and the collector.
//
// A user reports m of her d dimensions (paper Section III-B); each entry
// carries the dimension index and the perturbed value in the mechanism's
// native output space. The streaming pipeline (protocol/pipeline.h) avoids
// materializing reports for large simulations, but the types here are the
// public API a real deployment would serialize.

#ifndef HDLDP_PROTOCOL_REPORT_H_
#define HDLDP_PROTOCOL_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hdldp {
namespace protocol {

/// \brief One perturbed dimension of one user's tuple.
struct DimensionReport {
  /// Dimension index in [0, d).
  std::uint32_t dimension = 0;
  /// Perturbed value, in the mechanism's native output space.
  double value = 0.0;
};

/// \brief A user's full LDP report: her m sampled, perturbed dimensions.
struct UserReport {
  std::vector<DimensionReport> entries;
};

/// \brief Validates a report against the protocol shape: entry count m,
/// strictly valid dimension indices, no duplicate dimensions, finite
/// values within `output_lo`..`output_hi` (pass infinities for unbounded
/// mechanisms; ±inf values are still rejected). Entries are checked in
/// order and the first bad one decides the Status. Allocates only for
/// an error message; ascending entries (every decoded wire report) take
/// one comparison each.
Status ValidateReport(const UserReport& report, std::size_t num_dims,
                      std::size_t expected_entries, double output_lo,
                      double output_hi);

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_REPORT_H_
