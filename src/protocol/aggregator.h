// Collector-side half of the protocol: per-dimension calibration and
// aggregation (paper Section IV-B steps 2-3).
//
// The aggregator accumulates perturbed values per dimension (in the
// mechanism's native output space), optionally applies a constant
// per-dimension bias correction (the paper's "calibration by delta_ij";
// all unbiased mechanisms use delta = 0, and the paper's square-wave
// evaluation deliberately leaves the bias in), then averages and maps the
// estimate back into the data domain.

#ifndef HDLDP_PROTOCOL_AGGREGATOR_H_
#define HDLDP_PROTOCOL_AGGREGATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/math.h"
#include "common/result.h"
#include "common/status.h"
#include "mech/mechanism.h"
#include "protocol/report.h"

namespace hdldp {
namespace protocol {

/// \brief Streaming per-dimension mean estimator.
class MeanAggregator {
 public:
  /// Creates an aggregator for d dimensions whose incoming values live in
  /// the native space reached through `domain_map` (pass a default map if
  /// values are already in the data domain).
  static Result<MeanAggregator> Create(std::size_t num_dims,
                                       const mech::DomainMap& domain_map);

  /// \brief Folds one perturbed value for `dimension` (native space).
  void Consume(std::uint32_t dimension, double value) {
    sums_.Add(dimension, value);
    ++counts_[dimension];
  }

  /// \brief Folds `reports` values summing to `sum` into `dimension` at
  /// once: one Add of the partial sum and one count add. Bit-identical to
  /// `reports` Consume calls when every partial is exact, as the integer
  /// support counts of the frequency oracles are (below 2^53).
  void ConsumeSum(std::uint32_t dimension, double sum, std::int64_t reports) {
    sums_.Add(dimension, sum);
    counts_[dimension] += reports;
  }

  /// \brief Folds every entry of a report, in entry order; rejects the
  /// whole report (mutating nothing) if any dimension is out of range.
  Status ConsumeReport(std::span<const DimensionReport> entries);
  Status ConsumeReport(const UserReport& report) {
    return ConsumeReport(std::span<const DimensionReport>(report.entries));
  }

  /// \brief Folds a flat block of scattered entries: `dimensions[k]`
  /// receives `values[k]`. Validates sizes and dimension bounds up front
  /// (rejecting the whole block without mutating state on failure).
  /// Per-dimension accumulation order equals entry-order Consume() calls,
  /// so estimates are bit-identical to them. One in-place pass serves
  /// both the large cross-user blocks of the v3 batched sampled driver
  /// and v2's per-user spans. There is deliberately no reordering pass:
  /// bucketing a block by dimension group first, to keep each pass's
  /// sums L1-resident, measured slower than this fold at every d from
  /// 1024 to 2^20 (4-vCPU x86 VM).
  Status ConsumeScattered(std::span<const std::uint32_t> dimensions,
                          std::span<const double> values);

  /// \brief Folds complete user rows: `values` holds whole perturbed
  /// tuples back to back (size a multiple of d, entry k belonging to
  /// dimension k % d), as the engine's dense driver produces them.
  /// The block folds row-major through NeumaierColumns::AddRows, one
  /// vectorized compensated step per value across each row; every
  /// dimension still receives its values in user order, so the state is
  /// bit-identical to the scalar Consume() order. No per-entry dimension
  /// index or bounds check is paid.
  Status ConsumeDense(std::span<const double> values);

  /// \brief Folds another aggregator's state in (parallel reduction).
  /// Both aggregators must have the same dimensionality; the bias
  /// correction of *this* aggregator is kept.
  Status Merge(const MeanAggregator& other);

  /// \brief State-exact merge: per dimension the raw Neumaier (sum,
  /// compensation) pairs combine through NeumaierColumns::MergeState
  /// (NeumaierSum::MergeState per column, an error-free TwoSum in the sum
  /// channel) and counts add.
  ///
  /// This is the mergeable-state primitive of the aggregation service
  /// (laws pinned by tests/test_merge_laws.cc for mean and
  /// freq-expanded state): the zero-state aggregator is an exact
  /// identity, the operation is bit-commutative, a fixed split merged
  /// in a fixed order is bit-reproducible — the service pins its
  /// group/pane merge order, making published estimates independent of
  /// worker count and of crash/restore boundaries (SerializeState
  /// round-trips the raw state exactly) — and when every addition is
  /// exact the merge tree is provably invisible: any association is
  /// bit-identical to the single fold. For general perturbed data the
  /// merged estimate stays within an ulp or two of the single fold.
  ///
  /// Merge() (above) instead folds the other side's rounded Total() and
  /// stays frozen: the reduction tree's golden estimates pin it.
  Status MergeState(const MeanAggregator& other);

  /// \brief Zeroes all sums and counts (bias correction and domain map
  /// are kept), so one scratch aggregator can serve many chunks.
  void Reset();

  /// \brief Appends the exact aggregation state — per dimension the raw
  /// Neumaier (sum, compensation) pair as f64 and the report count as
  /// u64 (common/bytes.h) — to *out. Configuration (domain map, bias
  /// correction) is NOT serialized; it is re-derived from the run
  /// options on resume.
  /// Round-tripping through RestoreState reproduces the accumulator bit
  /// for bit, which is what makes checkpointed runs resume to
  /// bit-identical estimates (protocol/snapshot.h).
  void SerializeState(std::vector<unsigned char>* out) const;

  /// \brief Restores state written by SerializeState into this
  /// aggregator. The byte count must match this dimensionality.
  Status RestoreState(std::span<const unsigned char> bytes);

  /// \brief Sets a per-dimension additive bias correction subtracted from
  /// each dimension's native-space mean (the calibration step). Must have
  /// d entries.
  Status SetBiasCorrection(std::vector<double> native_bias);

  /// Reports received in dimension j (the paper's r_j).
  std::int64_t ReportCount(std::size_t j) const { return counts_[j]; }

  /// Total reports across dimensions.
  std::int64_t TotalReports() const;

  /// \brief Estimated mean theta-hat in the data domain. Dimensions with
  /// zero reports estimate 0.0 whatever the domain map: the midpoint of
  /// the paper's [-1, 1] data domain, not of any other. The estimate is the
  /// naive average the paper identifies as sub-optimal in high dimensions;
  /// feed it to hdr4me::Recalibrate for the enhanced mean.
  std::vector<double> EstimatedMean() const;

  /// Number of dimensions d.
  std::size_t num_dims() const { return counts_.size(); }

 private:
  MeanAggregator(std::size_t num_dims, const mech::DomainMap& domain_map);

  mech::DomainMap domain_map_;
  NeumaierColumns sums_;
  std::vector<std::int64_t> counts_;
  std::vector<double> native_bias_;
};

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_AGGREGATOR_H_
