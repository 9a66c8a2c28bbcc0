// Streaming and batch statistics.
//
// The evaluation harness estimates empirical pdfs of LDP deviations
// (Figures 2-3) and summary moments over millions of reports; this header
// provides numerically stable single-pass accumulators and a fixed-bin
// histogram whose normalized counts approximate a density.

#ifndef HDLDP_COMMON_STATS_H_
#define HDLDP_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace hdldp {

/// \brief Single-pass mean/variance/skewness/kurtosis (Welford/Pébay).
class RunningMoments {
 public:
  /// Folds one observation into the accumulator.
  void Add(double x);

  /// Merges another accumulator (parallel reduction support).
  void Merge(const RunningMoments& other);

  /// Number of observations so far.
  std::int64_t count() const { return n_; }
  /// Sample mean; 0 when empty.
  double Mean() const { return mean_; }
  /// Unbiased sample variance; 0 when count < 2.
  double Variance() const;
  /// Population variance (divide by n); 0 when empty.
  double PopulationVariance() const;
  /// Sample standard deviation.
  double StdDev() const;
  /// Standardized third moment; 0 when undefined.
  double Skewness() const;
  /// Excess kurtosis; 0 when undefined.
  double ExcessKurtosis() const;
  /// Smallest observation; +inf when empty.
  double Min() const { return min_; }
  /// Largest observation; -inf when empty.
  double Max() const { return max_; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
  double min_;
  double max_;

 public:
  RunningMoments();
};

/// \brief Equal-width histogram over [lo, hi) usable as a density estimate.
///
/// Out-of-range observations are counted in underflow/overflow tallies so
/// `TotalCount` always matches the number of Add calls.
class Histogram {
 public:
  /// Creates a histogram with `bins` equal-width bins spanning [lo, hi).
  static Result<Histogram> Create(double lo, double hi, std::size_t bins);

  /// Folds one observation.
  void Add(double x);

  /// Center of bin i.
  double BinCenter(std::size_t i) const;
  /// Width of each bin.
  double bin_width() const { return width_; }
  /// Number of bins.
  std::size_t num_bins() const { return counts_.size(); }
  /// Raw count of bin i.
  std::int64_t Count(std::size_t i) const { return counts_[i]; }
  /// Observations below lo / at-or-above hi.
  std::int64_t underflow() const { return underflow_; }
  std::int64_t overflow() const { return overflow_; }
  /// All observations ever added (in-range + out-of-range).
  std::int64_t TotalCount() const;

  /// Density estimate at bin i: count / (total * width). In-range mass
  /// integrates to (in-range count / total count).
  double DensityAt(std::size_t i) const;

  /// Densities for all bins.
  std::vector<double> Densities() const;

 private:
  Histogram(double lo, double hi, std::size_t bins);

  double lo_;
  double hi_;
  double width_;
  std::vector<std::int64_t> counts_;
  std::int64_t underflow_ = 0;
  std::int64_t overflow_ = 0;
};

/// \brief Sample mean of a range; 0 for an empty range.
double Mean(const std::vector<double>& xs);

/// \brief Unbiased sample variance; 0 when n < 2.
double SampleVariance(const std::vector<double>& xs);

}  // namespace hdldp

#endif  // HDLDP_COMMON_STATS_H_
