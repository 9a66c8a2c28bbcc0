#include "protocol/aggregator.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "common/bytes.h"

namespace hdldp {
namespace protocol {

MeanAggregator::MeanAggregator(std::size_t num_dims,
                               const mech::DomainMap& domain_map)
    : domain_map_(domain_map),
      sums_(num_dims),
      counts_(num_dims, 0),
      native_bias_(num_dims, 0.0) {}

Result<MeanAggregator> MeanAggregator::Create(
    std::size_t num_dims, const mech::DomainMap& domain_map) {
  if (num_dims == 0) {
    return Status::InvalidArgument("MeanAggregator requires num_dims > 0");
  }
  return MeanAggregator(num_dims, domain_map);
}

Status MeanAggregator::ConsumeReport(
    std::span<const DimensionReport> entries) {
  for (const DimensionReport& entry : entries) {
    if (entry.dimension >= counts_.size()) {
      return Status::OutOfRange("report dimension out of range");
    }
  }
  for (const DimensionReport& entry : entries) {
    Consume(entry.dimension, entry.value);
  }
  return Status::OK();
}

Status MeanAggregator::ConsumeScattered(
    std::span<const std::uint32_t> dimensions,
    std::span<const double> values) {
  if (dimensions.size() != values.size()) {
    return Status::InvalidArgument(
        "ConsumeScattered has " + std::to_string(dimensions.size()) +
        " dimensions but " + std::to_string(values.size()) + " values");
  }
  if (dimensions.empty()) return Status::OK();
  const std::size_t d = counts_.size();
  // Branchless max-reduce instead of a per-entry bounds branch: the
  // whole block is validated before any state mutates either way.
  std::uint32_t max_dim = 0;
  for (const std::uint32_t dimension : dimensions) {
    max_dim = std::max(max_dim, dimension);
  }
  if (max_dim >= d) {
    return Status::OutOfRange("scattered dimension out of range");
  }
  for (std::size_t k = 0; k < dimensions.size(); ++k) {
    Consume(dimensions[k], values[k]);
  }
  return Status::OK();
}

Status MeanAggregator::ConsumeDense(std::span<const double> values) {
  const std::size_t d = counts_.size();
  if (values.size() % d != 0) {
    return Status::InvalidArgument(
        "ConsumeDense has " + std::to_string(values.size()) +
        " values, not a multiple of num_dims " + std::to_string(d));
  }
  sums_.AddRows(values);
  const auto users = static_cast<std::int64_t>(values.size() / d);
  for (std::int64_t& count : counts_) count += users;
  return Status::OK();
}

Status MeanAggregator::Merge(const MeanAggregator& other) {
  if (other.counts_.size() != counts_.size()) {
    return Status::InvalidArgument(
        "MeanAggregator::Merge requires matching dimensionality");
  }
  for (std::size_t j = 0; j < counts_.size(); ++j) {
    sums_.Add(j, other.sums_.Total(j));
    counts_[j] += other.counts_[j];
  }
  return Status::OK();
}

Status MeanAggregator::MergeState(const MeanAggregator& other) {
  if (other.counts_.size() != counts_.size()) {
    return Status::InvalidArgument(
        "MeanAggregator::MergeState requires matching dimensionality");
  }
  sums_.MergeState(other.sums_);
  for (std::size_t j = 0; j < counts_.size(); ++j) {
    counts_[j] += other.counts_[j];
  }
  return Status::OK();
}

void MeanAggregator::Reset() {
  sums_.Reset();
  std::fill(counts_.begin(), counts_.end(), std::int64_t{0});
}

void MeanAggregator::SerializeState(std::vector<unsigned char>* out) const {
  // Every dimension's three fields are 8 bytes wide, so they move as one
  // u64 array each way: the service serializes a pane on every seal and
  // restores every pane of a window on every publish. An f64 field is
  // its IEEE-754 bit pattern (common/bytes.h).
  const std::size_t d = num_dims();
  std::vector<std::uint64_t> fields(3 * d);
  for (std::size_t j = 0; j < d; ++j) {
    // The raw (sum, compensation) pair, not Total(): collapsing the
    // compensation term would shift a resumed run's estimate by an ulp.
    fields[3 * j] = std::bit_cast<std::uint64_t>(sums_.RawSum(j));
    fields[3 * j + 1] = std::bit_cast<std::uint64_t>(sums_.Compensation(j));
    fields[3 * j + 2] = static_cast<std::uint64_t>(counts_[j]);
  }
  ByteWriter(out).Write(std::span<const std::uint64_t>(fields));
}

Status MeanAggregator::RestoreState(std::span<const unsigned char> bytes) {
  const std::size_t d = num_dims();
  if (bytes.size() != d * 24) {
    return Status::DataLoss(
        "aggregator state size mismatch (expected " + std::to_string(d * 24) +
        " bytes for " + std::to_string(d) + " dimensions, got " +
        std::to_string(bytes.size()) + ")");
  }
  // One u64 array, as SerializeState writes it.
  std::vector<std::uint64_t> fields(3 * d);
  ByteReader in(bytes, StatusCode::kDataLoss, "aggregator state truncated");
  HDLDP_RETURN_NOT_OK(in.Read(std::span(fields)));
  for (std::size_t j = 0; j < d; ++j) {
    sums_.RestoreRaw(j, std::bit_cast<double>(fields[3 * j]),
                     std::bit_cast<double>(fields[3 * j + 1]));
    counts_[j] = static_cast<std::int64_t>(fields[3 * j + 2]);
  }
  return Status::OK();
}

Status MeanAggregator::SetBiasCorrection(std::vector<double> native_bias) {
  if (native_bias.size() != counts_.size()) {
    return Status::InvalidArgument(
        "bias correction has " + std::to_string(native_bias.size()) +
        " entries, expected " + std::to_string(counts_.size()));
  }
  native_bias_ = std::move(native_bias);
  return Status::OK();
}

std::int64_t MeanAggregator::TotalReports() const {
  std::int64_t total = 0;
  for (const auto c : counts_) total += c;
  return total;
}

std::vector<double> MeanAggregator::EstimatedMean() const {
  std::vector<double> mean(counts_.size());
  for (std::size_t j = 0; j < counts_.size(); ++j) {
    if (counts_[j] == 0) {
      // No reports carry no information; estimate the center of the
      // paper's [-1, 1] data domain.
      mean[j] = 0.0;
      continue;
    }
    const double native_mean =
        sums_.Total(j) / static_cast<double>(counts_[j]) - native_bias_[j];
    mean[j] = domain_map_.Backward(native_mean);
  }
  return mean;
}

}  // namespace protocol
}  // namespace hdldp
