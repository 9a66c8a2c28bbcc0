#include "framework/value_distribution.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/math.h"

namespace hdldp {
namespace framework {

namespace {

// Sorts `samples` into `sorted` by the 16-bit code
// min((x - lo) * scale, 65535): two stable 8-bit LSD counting passes,
// then an insertion pass. The code never decreases as x grows (rounded
// subtraction, a positive finite scale and truncation all keep order),
// so only samples that share a code can be out of order after the
// counting passes, and the insertion pass moves nothing else;
// equal values (-0 and +0 among them) keep their input order. Returns
// false, `sorted` then unspecified, once the insertion pass has made more
// than 4n shifts, as when one far outlier crowds the column into a few
// codes.
bool CodeSort(std::span<const double> samples, double lo, double scale,
              std::span<double> sorted) {
  const std::size_t n = samples.size();
  std::vector<double> scratch(n);
  std::vector<std::uint16_t> codes(n);
  std::vector<std::uint16_t> scratch_codes(n);
  for (std::size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<std::uint16_t>(
        std::min((samples[i] - lo) * scale, 65535.0));
  }
  std::array<std::array<std::size_t, 256>, 2> counts{};
  for (const std::uint16_t code : codes) {
    ++counts[0][code & 0xFF];
    ++counts[1][code >> 8];
  }
  for (std::array<std::size_t, 256>& next : counts) {
    std::size_t offset = 0;
    for (std::size_t& slot : next) offset += std::exchange(slot, offset);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = counts[0][codes[i] & 0xFF]++;
    scratch[at] = samples[i];
    scratch_codes[at] = codes[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    sorted[counts[1][scratch_codes[i] >> 8]++] = scratch[i];
  }
  std::size_t shifts = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const double x = sorted[i];
    if (!(x < sorted[i - 1])) continue;
    std::size_t j = i;
    do {
      sorted[j] = sorted[j - 1];
    } while (--j > 0 && x < sorted[j - 1]);
    sorted[j] = x;
    shifts += i - j;
    if (shifts > 4 * n) return false;
  }
  return true;
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
  const std::size_t total_n = samples.size();
  double low = samples[0];
  double high = samples[0];
  bool finite = true;
  for (const double x : samples) {
    finite &= std::isfinite(x);
    low = std::min(low, x);
    high = std::max(high, x);
  }
  if (!finite) return Status::InvalidArgument("FromSamples: non-finite sample");
  const auto n = static_cast<double>(total_n);
  // Exact empirical law when the support is small: an ascending flat
  // probe of at most max_support distinct values (-0 and +0 compare
  // equal, so the first one seen holds their count).
  std::vector<std::pair<double, std::size_t>> support;
  support.reserve(std::min(max_support, total_n));
  bool small = true;
  for (const double x : samples) {
    const auto it = std::lower_bound(
        support.begin(), support.end(), x,
        [](const auto& entry, double v) { return entry.first < v; });
    if (it != support.end() && !(x < it->first)) {
      ++it->second;
    } else if (support.size() == max_support) {
      small = false;
      break;
    } else {
      support.insert(it, {x, 1});
    }
  }
  std::vector<double> values;
  std::vector<double> probs;
  if (small) {
    values.reserve(support.size());
    probs.reserve(support.size());
    for (const auto& [value, count] : support) {
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
  // representative, summed in ascending order. More than max_support
  // distinct values means low < high, so the range is positive, and
  // n > max_support, so no bin is empty.
  const double range = high - low;
  const double scale = 65535.0 / range;
  std::vector<double> sorted(total_n);
  if (!std::isfinite(range) || !std::isfinite(scale) ||
      !CodeSort(samples, low, scale, sorted)) {
    std::copy(samples.begin(), samples.end(), sorted.begin());
    std::sort(sorted.begin(), sorted.end());
  }
  values.reserve(max_support);
  probs.reserve(max_support);
  for (std::size_t b = 0; b < max_support; ++b) {
    const std::size_t begin = b * total_n / max_support;
    const std::size_t end = (b + 1) * total_n / max_support;
    NeumaierSum sum;
    for (std::size_t i = begin; i < end; ++i) sum.Add(sorted[i]);
    values.push_back(sum.Total() / static_cast<double>(end - begin));
    probs.push_back(static_cast<double>(end - begin) / n);
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
