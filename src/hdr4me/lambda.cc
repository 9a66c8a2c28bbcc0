#include "hdr4me/lambda.h"

#include <cmath>

#include "common/math.h"

namespace hdldp {
namespace hdr4me {

namespace {
Status ValidateOptions(const LambdaOptions& options) {
  if (!(options.confidence_z > 0.0)) {
    return Status::InvalidArgument("LambdaOptions requires confidence_z > 0");
  }
  return Status::OK();
}
}  // namespace

Result<std::vector<double>> SelectLambdaL1(
    std::span<const framework::GaussianDeviation> deviations,
    const LambdaOptions& options) {
  HDLDP_RETURN_NOT_OK(ValidateOptions(options));
  if (deviations.empty()) {
    return Status::InvalidArgument("SelectLambdaL1 requires >= 1 dimension");
  }
  std::vector<double> lambda(deviations.size());
  for (std::size_t j = 0; j < deviations.size(); ++j) {
    const double sup = deviations[j].SupDeviation(options.confidence_z);
    if (options.gate_on_threshold && sup <= 1.0) {
      // Lemma 4 precondition |theta-hat - theta-bar| > 1 is not predicted
      // to hold: leave this dimension un-recalibrated.
      lambda[j] = 0.0;
      continue;
    }
    lambda[j] = Clamp(sup, 0.0, kLambdaCap);
  }
  return lambda;
}

Result<std::vector<double>> SelectLambdaL2(
    std::span<const framework::GaussianDeviation> deviations,
    std::span<const double> estimated_mean, const LambdaOptions& options) {
  HDLDP_RETURN_NOT_OK(ValidateOptions(options));
  if (deviations.empty()) {
    return Status::InvalidArgument("SelectLambdaL2 requires >= 1 dimension");
  }
  if (options.l2_reference == L2Reference::kEstimate &&
      estimated_mean.size() != deviations.size()) {
    return Status::InvalidArgument(
        "SelectLambdaL2 with kEstimate requires estimated_mean per dimension");
  }
  std::vector<double> lambda(deviations.size());
  for (std::size_t j = 0; j < deviations.size(); ++j) {
    const double sup = deviations[j].SupDeviation(options.confidence_z);
    if (options.gate_on_threshold && sup <= 2.0) {
      // Lemma 5 precondition |theta-hat - theta-bar| > 2 not predicted.
      lambda[j] = 0.0;
      continue;
    }
    const double reference =
        options.l2_reference == L2Reference::kModelBias
            ? std::abs(deviations[j].mean)
            : std::abs(estimated_mean[j]);
    // theta-bar ~ 0 sends lambda* -> infinity; the cap keeps it finite and
    // the solver output at ~0, matching the paper's high-d observation.
    lambda[j] = reference * 2.0 > sup / kLambdaCap
                    ? Clamp(sup / (2.0 * reference), 0.0, kLambdaCap)
                    : kLambdaCap;
  }
  return lambda;
}

}  // namespace hdr4me
}  // namespace hdldp
