// Utility metrics of Section III-B: Euclidean deviation (paper Eq. 2) and
// mean squared error (paper Eq. 3), related by MSE = ||.||^2 / d.

#ifndef HDLDP_PROTOCOL_METRICS_H_
#define HDLDP_PROTOCOL_METRICS_H_

#include <vector>

#include "common/result.h"

namespace hdldp {
namespace protocol {

/// \brief ||a - b||_2 (paper Eq. 2). Errors on length mismatch.
Result<double> L2Distance(const std::vector<double>& a,
                          const std::vector<double>& b);

/// \brief (1/d) sum_j (a_j - b_j)^2 (paper Eq. 3).
Result<double> MeanSquaredError(const std::vector<double>& a,
                                const std::vector<double>& b);

/// \brief Support-recovery quality of a (possibly sparsified) estimate.
///
/// A dimension is "active" when |value| > threshold. Precision = active
/// estimate dims that are truly active / all active estimate dims; recall
/// analogously; F1 their harmonic mean. Degenerate denominators yield 1
/// when both sides are empty and 0 otherwise, so a perfectly sparse match
/// scores 1 everywhere. Used to evaluate HDR4ME-L1's zeroing behaviour.
struct SupportRecovery {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  std::size_t true_active = 0;
  std::size_t estimated_active = 0;
};

/// \brief Computes support recovery of `estimate` against `truth` at the
/// given activity threshold (>= 0). Errors on length mismatch.
Result<SupportRecovery> EvaluateSupportRecovery(
    const std::vector<double>& estimate, const std::vector<double>& truth,
    double threshold);

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_METRICS_H_
