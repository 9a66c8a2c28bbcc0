#include "protocol/metrics.h"

#include <cmath>

#include "common/math.h"

namespace hdldp {
namespace protocol {

namespace {
Status CheckSameLength(const std::vector<double>& a,
                       const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) {
    return Status::InvalidArgument(
        "metric requires two non-empty vectors of equal length");
  }
  return Status::OK();
}
}  // namespace

Result<double> L2Distance(const std::vector<double>& a,
                          const std::vector<double>& b) {
  HDLDP_RETURN_NOT_OK(CheckSameLength(a, b));
  NeumaierSum acc;
  for (std::size_t j = 0; j < a.size(); ++j) acc.Add(Sq(a[j] - b[j]));
  return std::sqrt(acc.Total());
}

Result<double> MeanSquaredError(const std::vector<double>& a,
                                const std::vector<double>& b) {
  HDLDP_RETURN_NOT_OK(CheckSameLength(a, b));
  NeumaierSum acc;
  for (std::size_t j = 0; j < a.size(); ++j) acc.Add(Sq(a[j] - b[j]));
  return acc.Total() / static_cast<double>(a.size());
}

Result<SupportRecovery> EvaluateSupportRecovery(
    const std::vector<double>& estimate, const std::vector<double>& truth,
    double threshold) {
  HDLDP_RETURN_NOT_OK(CheckSameLength(estimate, truth));
  if (!(threshold >= 0.0)) {
    return Status::InvalidArgument("support recovery needs threshold >= 0");
  }
  SupportRecovery out;
  std::size_t hits = 0;
  for (std::size_t j = 0; j < estimate.size(); ++j) {
    const bool est_active = std::abs(estimate[j]) > threshold;
    const bool true_active = std::abs(truth[j]) > threshold;
    out.estimated_active += est_active ? 1 : 0;
    out.true_active += true_active ? 1 : 0;
    hits += (est_active && true_active) ? 1 : 0;
  }
  out.precision = out.estimated_active == 0
                      ? (out.true_active == 0 ? 1.0 : 0.0)
                      : static_cast<double>(hits) /
                            static_cast<double>(out.estimated_active);
  out.recall = out.true_active == 0
                   ? (out.estimated_active == 0 ? 1.0 : 0.0)
                   : static_cast<double>(hits) /
                         static_cast<double>(out.true_active);
  out.f1 = (out.precision + out.recall) > 0.0
               ? 2.0 * out.precision * out.recall /
                     (out.precision + out.recall)
               : 0.0;
  return out;
}

}  // namespace protocol
}  // namespace hdldp
