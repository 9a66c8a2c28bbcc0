// Discrete distribution of original values in one dimension.
//
// Lemma 3 models bounded mechanisms by splitting the reports into groups
// of equal original value {v_z} with probabilities {p_z}; this class is
// that (value, probability) list. Continuous data is discretized "with
// sampling" (paper Section IV-B): FromSamples keeps the exact empirical
// support when it is small and otherwise collapses the sample into
// equal-probability quantile bins represented by their conditional means.

#ifndef HDLDP_FRAMEWORK_VALUE_DISTRIBUTION_H_
#define HDLDP_FRAMEWORK_VALUE_DISTRIBUTION_H_

#include <span>
#include <vector>

#include "common/result.h"

namespace hdldp {
namespace framework {

/// \brief Finite-support distribution of one dimension's original values.
class ValueDistribution {
 public:
  /// Creates from explicit support and probabilities (must be the same
  /// non-zero length; probabilities non-negative, summing to 1 +/- 1e-9).
  static Result<ValueDistribution> Create(std::vector<double> values,
                                          std::vector<double> probabilities);

  /// Distribution concentrated at a single value.
  static ValueDistribution Point(double value);

  /// \brief Empirical distribution of a sample.
  ///
  /// If the sample has at most `max_support` distinct values the exact
  /// empirical law is returned; otherwise the sorted sample is split into
  /// `max_support` equal-count bins and each bin is represented by its
  /// mean (a compensated sum in ascending order) with mass (bin count / n).
  /// Every sample must be finite: a NaN or infinity is InvalidArgument.
  ///
  /// The sort is by a 16-bit value code, min((x - lo) * (65535 / (hi -
  /// lo)), 65535) truncated, which never decreases as x grows: two stable
  /// 8-bit counting passes order the sample by code, and an insertion pass
  /// orders each run of equal codes. It falls back to std::sort when
  /// hi - lo or the scale is not finite (a range that overflows, a
  /// subnormal range), or once the insertion pass has shifted more than
  /// 4n values (one far outlier crowds the rest into a few codes). Both
  /// yield the same ascending array up to the relative order of -0 and
  /// +0, which no bin mean can see, so the bins are the same bit for bit
  /// whichever runs.
  static Result<ValueDistribution> FromSamples(std::span<const double> samples,
                                               std::size_t max_support = 64);

  const std::vector<double>& values() const { return values_; }
  const std::vector<double>& probabilities() const { return probabilities_; }
  std::size_t support_size() const { return values_.size(); }

  /// E[V].
  double Mean() const;
  /// Var[V] (population).
  double Variance() const;

 private:
  ValueDistribution(std::vector<double> values,
                    std::vector<double> probabilities);

  std::vector<double> values_;
  std::vector<double> probabilities_;
};

}  // namespace framework
}  // namespace hdldp

#endif  // HDLDP_FRAMEWORK_VALUE_DISTRIBUTION_H_
