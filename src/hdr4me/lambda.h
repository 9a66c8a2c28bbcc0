// Regularization-weight selection for HDR4ME (paper Lemmas 4-5).
//
// L1 (Lemma 4):  lambda*_j = sup|theta-hat_j - theta-bar_j|, instantiated
// from the framework's Gaussian deviation as |delta_j| + z sigma_j at a
// confidence z (default 3).
//
// L2 (Lemma 5):  lambda*_j = sup(theta-hat_j - theta-bar_j) / (2 theta-bar_j).
// The collector does not know theta-bar_j; the paper remarks that "theta-bar_j
// can select the mean of the normal distribution that approximates
// theta-hat_j - theta-bar_j" (i.e. delta_j). For unbiased mechanisms
// delta_j = 0, driving lambda*_j -> infinity and the enhanced mean to ~0 —
// exactly the "each entry of the enhanced mean is nearly zero" behaviour the
// paper reports in Figs. 4(g)-(k). Both that literal reading
// (kModelBias) and the practical plug-in of the observed estimate
// (kEstimate) are provided; weights are capped to keep arithmetic finite.

#ifndef HDLDP_HDR4ME_LAMBDA_H_
#define HDLDP_HDR4ME_LAMBDA_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "framework/deviation_model.h"

namespace hdldp {
namespace hdr4me {

/// How L2 instantiates the unknown true mean theta-bar_j in Lemma 5.
enum class L2Reference {
  /// The deviation model's mean delta_j (the paper's literal remark).
  kModelBias,
  /// The collector's observed estimate theta-hat_j (practical plug-in).
  kEstimate,
};

/// Upper cap on any lambda*_j, keeping the degenerate theta-bar ~ 0 case
/// finite (the solver then maps theta-hat to ~0, the paper's observed
/// regime).
inline constexpr double kLambdaCap = 1e12;

/// Configuration of lambda* selection.
struct LambdaOptions {
  /// z-score at which the Gaussian model instantiates the supremum
  /// sup|theta-hat - theta-bar| = |delta| + z sigma.
  double confidence_z = 3.0;
  /// Reference mean used by L2 (see L2Reference).
  L2Reference l2_reference = L2Reference::kEstimate;
  /// Apply the Lemma 4/5 thresholds as gates: dimensions whose predicted
  /// sup-deviation does not exceed the lemma threshold (1 for L1, 2 for
  /// L2) get lambda*_j = 0 (no re-calibration). The paper's evaluation
  /// runs ungated, which is why Square wave can get *worse*; gating is the
  /// principled variant (see bench_ablation_gating).
  bool gate_on_threshold = false;
};

/// \brief Lemma 4 weights: lambda*_j = |delta_j| + z sigma_j.
Result<std::vector<double>> SelectLambdaL1(
    std::span<const framework::GaussianDeviation> deviations,
    const LambdaOptions& options);

/// \brief Lemma 5 weights: lambda*_j = (|delta_j| + z sigma_j) /
/// (2 |ref_j|), with ref_j chosen per options.l2_reference.
/// `estimated_mean` is required for (and only read by) kEstimate.
Result<std::vector<double>> SelectLambdaL2(
    std::span<const framework::GaussianDeviation> deviations,
    std::span<const double> estimated_mean, const LambdaOptions& options);

}  // namespace hdr4me
}  // namespace hdldp

#endif  // HDLDP_HDR4ME_LAMBDA_H_
