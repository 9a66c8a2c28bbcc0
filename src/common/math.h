// Numerical building blocks shared across hdldp.
//
// The analytical framework (src/framework) is mostly closed-form Gaussian
// algebra plus one-dimensional quadrature over perturbation densities; this
// header collects the primitives: the standard normal family, adaptive
// Simpson and fixed-order Gauss-Legendre integration, and compensated
// summation for long reductions.

#ifndef HDLDP_COMMON_MATH_H_
#define HDLDP_COMMON_MATH_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"

namespace hdldp {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kSqrt2 = 1.41421356237309504880;
inline constexpr double kSqrt2Pi = 2.50662827463100050242;

/// \brief x².
constexpr double Sq(double x) { return x * x; }

/// \brief x clamped to [lo, hi].
constexpr double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// \brief Density of N(0, 1) at x.
double NormalPdf(double x);

/// \brief Density of N(mean, stddev²) at x. Requires stddev > 0.
double NormalPdf(double x, double mean, double stddev);

/// \brief P(N(0,1) <= x), accurate in both tails (erfc-based).
double NormalCdf(double x);

/// \brief P(N(mean, stddev²) <= x). Requires stddev > 0.
double NormalCdf(double x, double mean, double stddev);

/// \brief P(lo <= N(mean, stddev²) <= hi), computed tail-stably.
double NormalIntervalProb(double lo, double hi, double mean, double stddev);

/// \brief Inverse of NormalCdf on (0, 1); Acklam's rational approximation
/// polished with one Halley step (|rel err| < 1e-13 on (1e-300, 1-1e-16)).
double NormalQuantile(double p);

/// \brief Result of a quadrature call.
struct QuadratureResult {
  /// Integral estimate.
  double value = 0.0;
  /// Estimated absolute error.
  double error = 0.0;
  /// Number of integrand evaluations spent.
  std::size_t evaluations = 0;
};

/// Options for AdaptiveSimpson.
struct QuadratureOptions {
  /// Target absolute error for the whole interval.
  double abs_tolerance = 1e-10;
  /// Hard recursion depth cap; beyond it the local estimate is accepted.
  int max_depth = 40;
};

/// \brief Adaptive Simpson integration of `f` over [a, b].
///
/// Handles a > b by sign flip. The integrand must be finite on [a, b];
/// perturbation densities in hdldp are bounded and piecewise smooth, for
/// which adaptive Simpson converges quickly between breakpoints (callers
/// split at known discontinuities, see mech/*).
QuadratureResult AdaptiveSimpson(const std::function<double(double)>& f,
                                 double a, double b,
                                 const QuadratureOptions& options = {});

/// \brief Fixed 64-point Gauss-Legendre quadrature over [a, b]; exact for
/// polynomials up to degree 127, used where the integrand is smooth.
double GaussLegendre64(const std::function<double(double)>& f, double a,
                       double b);

/// \brief Integrates `f` over the union of [breaks[i], breaks[i+1]]
/// segments with AdaptiveSimpson per segment. `breaks` must be sorted.
Result<double> IntegrateSegments(const std::function<double(double)>& f,
                                 const std::vector<double>& breaks,
                                 const QuadratureOptions& options = {});

/// \brief One Neumaier (improved Kahan) step: adds `x` to the running
/// (*sum, *compensation) pair.
///
/// The textbook step branches on which operand dominates
/// (`c += |s| >= |x| ? (s - t) + x : (x - t) + s`); this is the same step
/// with the branch turned into a select (`hi` the dominant operand, `lo`
/// the other, `c += (hi - t) + lo`), bit for bit, NaN and ±inf included
/// (pinned by tests/test_math.cc). Every compensated fold in the library
/// (NeumaierSum, NeumaierColumns and so MeanAggregator) runs this one
/// body; it is inline because aggregation loops call it once per value,
/// and branch-free so that NeumaierColumns::AddRows vectorizes.
inline void NeumaierStep(double x, double* sum, double* compensation) {
  const double s = *sum;
  const double t = s + x;
  // Abs only feeds the comparison, where ±0 compare equal and NaN compares
  // false whichever sign it carries.
  const bool sum_dominates = __builtin_fabs(s) >= __builtin_fabs(x);
  const double hi = sum_dominates ? s : x;
  const double lo = sum_dominates ? x : s;
  *compensation += (hi - t) + lo;
  *sum = t;
}

/// \brief Neumaier (improved Kahan) compensated accumulator.
class NeumaierSum {
 public:
  /// Adds one term.
  void Add(double x) { NeumaierStep(x, &sum_, &compensation_); }
  /// Folds another accumulator in (parallel-reduction support).
  void Merge(const NeumaierSum& other) { Add(other.Total()); }

  /// \brief Merges another accumulator's full (sum, compensation) state,
  /// not just its rounded Total(): the raw sums combine through a
  /// branch-free TwoSum whose residual is captured *exactly* into the
  /// compensation channel, so no information is rounded away at the
  /// merge boundary itself.
  ///
  /// Contract (pinned by tests/test_merge_laws.cc):
  ///   * the zero state is an exact two-sided identity, bit for bit;
  ///   * the operation is bit-commutative (TwoSum's residual is a
  ///     symmetric sum of two exact halves, and float addition
  ///     commutes);
  ///   * whenever every addition is exact (the compensation channel
  ///     stays zero — e.g. dyadic values with small exponent spread),
  ///     the full state after any merge order is bit-identical to the
  ///     single accumulator that folded all the underlying values;
  ///   * for general data the compensation additions round, so only a
  ///     fixed merge order is bit-reproducible — which is why every
  ///     consumer (the reduction tree, the service's group/pane merge)
  ///     pins its merge order — and Total() stays within an ulp or two
  ///     of the single fold.
  ///
  /// Merge() (above) collapses the other side's compensation first and
  /// is frozen into the reduction tree's golden estimates; MergeState is
  /// the primitive for state that outlives one process — service pane
  /// aggregates, snapshots — where a fold split across workers or across
  /// a crash/restore boundary must publish the same bits.
  void MergeState(const NeumaierSum& other) {
    // TwoSum (Knuth): s + e == sum_ + other.sum_ exactly, e representable.
    const double a = sum_;
    const double b = other.sum_;
    const double s = a + b;
    const double a_part = s - b;
    const double b_part = s - a_part;
    const double e = (a - a_part) + (b - b_part);
    sum_ = s;
    compensation_ = (compensation_ + other.compensation_) + e;
  }

  /// Current compensated total.
  double Total() const { return sum_ + compensation_; }

  /// Exact internal state, for bit-identical checkpoint serialization
  /// (protocol/snapshot). Total() alone loses the compensation term, so a
  /// resumed run would drift off the uninterrupted run by an ulp; these
  /// round-trip the full state instead.
  double RawSum() const { return sum_; }
  double Compensation() const { return compensation_; }
  void RestoreRaw(double sum, double compensation) {
    sum_ = sum;
    compensation_ = compensation;
  }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// \brief One NeumaierSum per column of a row-major matrix, stored as a
/// struct of arrays so the row fold vectorizes.
///
/// Every fold runs NeumaierStep per column in arrival order, so every
/// column's RawSum() and Compensation() equal those of a NeumaierSum fed
/// the same values bit for bit (pinned by tests/test_math.cc, NaN and
/// ±inf included). It is the library's one compensated-column store:
/// MeanAggregator keeps its per-dimension sums in one (a dense block
/// folds through AddRows row-major, scattered entries through Add), the
/// mean truth (data::SurvivingMean, hence Dataset::TrueMean and every
/// mean run) folds each chunk's rows into its own and merges the chunks'
/// columns with MergeState in chunk order, and so do the variance truth's
/// mean and squared-deviation passes.
class NeumaierColumns {
 public:
  explicit NeumaierColumns(std::size_t columns)
      : sums_(columns, 0.0), compensations_(columns, 0.0) {}

  /// Adds one term to `column`.
  void Add(std::size_t column, double x) {
    NeumaierStep(x, &sums_[column], &compensations_[column]);
  }

  /// Folds consecutive rows; `rows.size()` must be a multiple of the
  /// column count.
  void AddRows(std::span<const double> rows);

  /// NeumaierSum::MergeState per column; `other` has the same column
  /// count.
  void MergeState(const NeumaierColumns& other);

  /// Zeroes every column.
  void Reset();

  double RawSum(std::size_t column) const { return sums_[column]; }
  double Compensation(std::size_t column) const {
    return compensations_[column];
  }
  /// Column's compensated total, as NeumaierSum::Total.
  double Total(std::size_t column) const {
    return sums_[column] + compensations_[column];
  }
  /// Restores one column's exact state, as NeumaierSum::RestoreRaw.
  void RestoreRaw(std::size_t column, double sum, double compensation) {
    sums_[column] = sum;
    compensations_[column] = compensation;
  }

  /// Per column, the compensated total divided by `count`.
  std::vector<double> Mean(std::size_t count) const;

 private:
  std::vector<double> sums_;
  std::vector<double> compensations_;
};

/// \brief Compensated sum of a range.
double StableSum(const double* data, std::size_t n);

}  // namespace hdldp

#endif  // HDLDP_COMMON_MATH_H_
