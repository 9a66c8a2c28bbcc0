#include "framework/value_distribution.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

#include "common/math.h"

namespace hdldp {
namespace framework {

namespace {

// Order-preserving 64-bit key of a finite double: a negative has every
// bit flipped, a non-negative only its sign bit, so unsigned key order is
// numeric order (-0 keys just below +0; the two compare equal, so either
// placement is one std::sort could also have produced).
std::uint64_t OrderKey(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return bits ^ ((std::uint64_t{0} - (bits >> 63)) | (std::uint64_t{1} << 63));
}

double FromOrderKey(std::uint64_t key) {
  return std::bit_cast<double>(
      key ^ (((key >> 63) - 1) | (std::uint64_t{1} << 63)));
}

// LSD radix sort of `keys`, one byte per pass, least significant first;
// `scratch` has the same size. A pass whose byte is the same for every
// key would move nothing and is skipped. Returns whichever buffer holds
// the ascending keys.
std::span<const std::uint64_t> RadixSort(std::span<std::uint64_t> keys,
                                         std::span<std::uint64_t> scratch) {
  constexpr int kPasses = 8;
  std::array<std::array<std::size_t, 256>, kPasses> counts{};
  for (const std::uint64_t key : keys) {
    for (int p = 0; p < kPasses; ++p) ++counts[p][(key >> (8 * p)) & 0xFF];
  }
  std::uint64_t* src = keys.data();
  std::uint64_t* dst = scratch.data();
  const std::size_t n = keys.size();
  for (int p = 0; p < kPasses; ++p) {
    const int shift = 8 * p;
    std::array<std::size_t, 256>& next = counts[p];
    if (next[(src[0] >> shift) & 0xFF] == n) continue;
    std::size_t offset = 0;
    for (std::size_t& slot : next) offset += std::exchange(slot, offset);
    for (std::size_t i = 0; i < n; ++i) {
      dst[next[(src[i] >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  return {src, n};
}

}  // namespace

ValueDistribution::ValueDistribution(std::vector<double> values,
                                     std::vector<double> probabilities)
    : values_(std::move(values)), probabilities_(std::move(probabilities)) {}

Result<ValueDistribution> ValueDistribution::Create(
    std::vector<double> values, std::vector<double> probabilities) {
  if (values.empty() || values.size() != probabilities.size()) {
    return Status::InvalidArgument(
        "ValueDistribution requires matching non-empty values/probabilities");
  }
  NeumaierSum total;
  for (const double p : probabilities) {
    if (p < 0.0 || !std::isfinite(p)) {
      return Status::InvalidArgument("ValueDistribution: bad probability");
    }
    total.Add(p);
  }
  if (std::abs(total.Total() - 1.0) > 1e-9) {
    return Status::InvalidArgument(
        "ValueDistribution: probabilities must sum to 1");
  }
  for (const double v : values) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("ValueDistribution: non-finite value");
    }
  }
  return ValueDistribution(std::move(values), std::move(probabilities));
}

ValueDistribution ValueDistribution::Point(double value) {
  return ValueDistribution({value}, {1.0});
}

Result<ValueDistribution> ValueDistribution::FromSamples(
    std::span<const double> samples, std::size_t max_support) {
  if (samples.empty()) {
    return Status::InvalidArgument("FromSamples requires a non-empty sample");
  }
  if (max_support == 0) {
    return Status::InvalidArgument("FromSamples requires max_support > 0");
  }
  for (const double x : samples) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("FromSamples: non-finite sample");
    }
  }
  // Exact empirical law when the support is small.
  std::map<double, std::size_t> counts;
  bool small = true;
  for (const double x : samples) {
    if (++counts[x] == 1 && counts.size() > max_support) {
      small = false;
      break;
    }
  }
  const auto n = static_cast<double>(samples.size());
  if (small) {
    std::vector<double> values;
    std::vector<double> probs;
    values.reserve(counts.size());
    probs.reserve(counts.size());
    for (const auto& [value, count] : counts) {
      values.push_back(value);
      probs.push_back(static_cast<double>(count) / n);
    }
    // Remove float fuzz in the probability total.
    double total = 0.0;
    for (const double p : probs) total += p;
    for (double& p : probs) p /= total;
    return Create(std::move(values), std::move(probs));
  }
  // Quantile-bin discretization: equal-count bins, bin mean as
  // representative, summed in ascending order.
  const std::size_t total_n = samples.size();
  std::vector<std::uint64_t> keys(total_n);
  std::vector<std::uint64_t> scratch(total_n);
  for (std::size_t i = 0; i < total_n; ++i) keys[i] = OrderKey(samples[i]);
  const std::span<const std::uint64_t> sorted = RadixSort(keys, scratch);
  std::vector<double> values;
  std::vector<double> probs;
  values.reserve(max_support);
  probs.reserve(max_support);
  std::size_t start = 0;
  for (std::size_t b = 0; b < max_support; ++b) {
    const std::size_t end = (b + 1) * total_n / max_support;
    if (end <= start) continue;
    NeumaierSum sum;
    for (std::size_t i = start; i < end; ++i) {
      sum.Add(FromOrderKey(sorted[i]));
    }
    values.push_back(sum.Total() / static_cast<double>(end - start));
    probs.push_back(static_cast<double>(end - start) / n);
    start = end;
  }
  return Create(std::move(values), std::move(probs));
}

double ValueDistribution::Mean() const {
  NeumaierSum acc;
  for (std::size_t z = 0; z < values_.size(); ++z) {
    acc.Add(values_[z] * probabilities_[z]);
  }
  return acc.Total();
}

double ValueDistribution::Variance() const {
  const double mean = Mean();
  NeumaierSum acc;
  for (std::size_t z = 0; z < values_.size(); ++z) {
    acc.Add(probabilities_[z] * Sq(values_[z] - mean));
  }
  return acc.Total();
}

}  // namespace framework
}  // namespace hdldp
