#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math.h"

namespace hdldp {

RunningMoments::RunningMoments()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void RunningMoments::Add(double x) {
  // Pébay's single-pass update of the first four central moments.
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningMoments::Merge(const RunningMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta2 * delta2;
  const double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + other.m3_ +
                    delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double m4 =
      m4_ + other.m4_ +
      delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;
  mean_ += delta * nb / n;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningMoments::Variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningMoments::PopulationVariance() const {
  return n_ < 1 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningMoments::StdDev() const { return std::sqrt(Variance()); }

double RunningMoments::Skewness() const {
  if (n_ < 2 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
}

double RunningMoments::ExcessKurtosis() const {
  if (n_ < 2 || m2_ <= 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return n * m4_ / (m2_ * m2_) - 3.0;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {}

Result<Histogram> Histogram::Create(double lo, double hi, std::size_t bins) {
  if (!(lo < hi)) {
    return Status::InvalidArgument("Histogram requires lo < hi");
  }
  if (bins == 0) {
    return Status::InvalidArgument("Histogram requires bins > 0");
  }
  return Histogram(lo, hi, bins);
}

void Histogram::Add(double x) {
  if (std::isnan(x)) {
    // NaN is neither below nor above the range; count it with the
    // overflow tally so TotalCount stays consistent (and the index
    // computation below never sees it).
    ++overflow_;
    return;
  }
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // x == hi - ulp edge.
  ++counts_[idx];
}

double Histogram::BinCenter(std::size_t i) const {
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

std::int64_t Histogram::TotalCount() const {
  std::int64_t total = underflow_ + overflow_;
  for (const auto c : counts_) total += c;
  return total;
}

double Histogram::DensityAt(std::size_t i) const {
  const std::int64_t total = TotalCount();
  if (total == 0) return 0.0;
  return static_cast<double>(counts_[i]) /
         (static_cast<double>(total) * width_);
}

std::vector<double> Histogram::Densities() const {
  std::vector<double> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) out[i] = DensityAt(i);
  return out;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return StableSum(xs.data(), xs.size()) / static_cast<double>(xs.size());
}

double SampleVariance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mean = Mean(xs);
  NeumaierSum acc;
  for (const double x : xs) acc.Add(Sq(x - mean));
  return acc.Total() / static_cast<double>(xs.size() - 1);
}

}  // namespace hdldp
