#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/math.h"
#include "common/stats.h"

namespace hdldp {
namespace data {

namespace {

// Each distribution in one place: PrepareParams validates its spec and
// returns its population parameters drawn from `rng`
// (PreparedGenerator::params_); Draw fills `rows` (whole rows of d
// values, user-major then dimension-major) from `rng`.

Result<std::vector<double>> PrepareParams(const UniformSpec& spec, Rng*) {
  if (!(spec.lo < spec.hi)) {
    return Status::InvalidArgument("uniform generator requires lo < hi");
  }
  return std::vector<double>();
}

void Draw(const UniformSpec& spec, const double*, std::size_t, Rng* rng,
          std::span<double> rows) {
  for (double& v : rows) v = rng->Uniform(spec.lo, spec.hi);
}

Result<std::vector<double>> PrepareParams(const GaussianSpec& spec, Rng*) {
  if (spec.stddev <= 0.0) {
    return Status::InvalidArgument("gaussian generator requires stddev > 0");
  }
  if (spec.high_fraction < 0.0 || spec.high_fraction > 1.0) {
    return Status::InvalidArgument(
        "gaussian generator requires high_fraction in [0, 1]");
  }
  return std::vector<double>();
}

void Draw(const GaussianSpec& spec, const double*, std::size_t d, Rng* rng,
          std::span<double> rows) {
  const auto num_high = static_cast<std::size_t>(
      std::ceil(spec.high_fraction * static_cast<double>(d)));
  for (std::size_t k = 0; k < rows.size(); k += d) {
    for (std::size_t j = 0; j < d; ++j) {
      const double mean = j < num_high ? spec.high_mean : spec.low_mean;
      rows[k + j] = rng->Gaussian(mean, spec.stddev);
    }
  }
}

Result<std::vector<double>> PrepareParams(const PoissonSpec& spec, Rng* rng) {
  if (!(spec.min_expectation > 0.0) ||
      !(spec.min_expectation <= spec.max_expectation)) {
    return Status::InvalidArgument(
        "poisson generator requires 0 < min_expectation <= max_expectation");
  }
  std::vector<double> lambdas(spec.num_dims);
  for (double& l : lambdas) {
    l = rng->Uniform(spec.min_expectation, spec.max_expectation);
  }
  return lambdas;
}

void Draw(const PoissonSpec&, const double* lambdas, std::size_t d, Rng* rng,
          std::span<double> rows) {
  for (std::size_t k = 0; k < rows.size(); k += d) {
    for (std::size_t j = 0; j < d; ++j) {
      rows[k + j] = static_cast<double>(rng->Poisson(lambdas[j]));
    }
  }
}

Result<std::vector<double>> PrepareParams(const CorrelatedSpec& spec,
                                          Rng* rng) {
  if (spec.num_factors == 0) {
    return Status::InvalidArgument("correlated generator requires factors > 0");
  }
  if (!(spec.factor_weight > 0.0 && spec.factor_weight < 1.0)) {
    return Status::InvalidArgument(
        "correlated generator requires factor_weight in (0, 1)");
  }
  // Per-dimension loadings on the shared factors; kept positive so all
  // pairwise correlations are positive and high, as the paper describes
  // for COV-19 ("each dimension has high correlations with others").
  const std::size_t k = spec.num_factors;
  std::vector<double> loadings(spec.num_dims * k);
  for (std::size_t j = 0; j < spec.num_dims; ++j) {
    double norm_sq = 0.0;
    for (std::size_t f = 0; f < k; ++f) {
      const double raw = 0.5 + rng->UniformDouble();  // In [0.5, 1.5).
      loadings[j * k + f] = raw;
      norm_sq += raw * raw;
    }
    const double inv_norm = 1.0 / std::sqrt(norm_sq);
    for (std::size_t f = 0; f < k; ++f) loadings[j * k + f] *= inv_norm;
  }
  return loadings;
}

void Draw(const CorrelatedSpec& spec, const double* loadings, std::size_t d,
          Rng* rng, std::span<double> rows) {
  const std::size_t k = spec.num_factors;
  const double w = spec.factor_weight;
  const double noise_w = std::sqrt(1.0 - w * w);
  std::vector<double> factors(k);
  for (std::size_t i = 0; i < rows.size(); i += d) {
    for (double& f : factors) f = rng->Gaussian();
    for (std::size_t j = 0; j < d; ++j) {
      double shared = 0.0;
      for (std::size_t f = 0; f < k; ++f) {
        shared += loadings[j * k + f] * factors[f];
      }
      rows[i + j] = w * shared + noise_w * rng->Gaussian();
    }
  }
}

Result<std::vector<double>> PrepareParams(const DiscreteSpec& spec, Rng*) {
  if (spec.values.empty() || spec.values.size() != spec.probabilities.size()) {
    return Status::InvalidArgument(
        "discrete generator requires matching non-empty values/probabilities");
  }
  double total = 0.0;
  for (const double p : spec.probabilities) {
    if (p < 0.0) {
      return Status::InvalidArgument(
          "discrete generator: negative probability");
    }
    total += p;
  }
  if (std::abs(total - 1.0) > 1e-9) {
    return Status::InvalidArgument(
        "discrete generator: probabilities must sum to 1");
  }
  // Cumulative table for inverse-CDF sampling.
  std::vector<double> cdf(spec.probabilities.size());
  std::partial_sum(spec.probabilities.begin(), spec.probabilities.end(),
                   cdf.begin());
  cdf.back() = 1.0;
  return cdf;
}

void Draw(const DiscreteSpec& spec, const double* cdf, std::size_t, Rng* rng,
          std::span<double> rows) {
  const std::size_t last = spec.values.size() - 1;
  for (double& v : rows) {
    const double u = rng->UniformDouble();
    std::size_t k = 0;
    while (k < last && u >= cdf[k]) ++k;
    v = spec.values[k];
  }
}

}  // namespace

ColumnRanges::ColumnRanges(std::size_t num_dims)
    : lo(num_dims, std::numeric_limits<double>::infinity()),
      hi(num_dims, -std::numeric_limits<double>::infinity()) {}

void ColumnRanges::Add(std::span<const double> rows) {
  const std::size_t d = lo.size();
  for (std::size_t k = 0; k < rows.size(); k += d) {
    for (std::size_t j = 0; j < d; ++j) {
      lo[j] = std::min(lo[j], rows[k + j]);
      hi[j] = std::max(hi[j], rows[k + j]);
    }
  }
}

Result<PreparedGenerator> PreparedGenerator::Prepare(const GeneratorSpec& spec,
                                                     Rng* param_rng) {
  PreparedGenerator out;
  out.spec_ = spec;
  HDLDP_ASSIGN_OR_RETURN(
      out.params_,
      std::visit(
          [&](const auto& s) -> Result<std::vector<double>> {
            out.num_users_ = s.num_users;
            out.num_dims_ = s.num_dims;
            if (s.num_users == 0 || s.num_dims == 0) {
              return Status::InvalidArgument(
                  "generator requires num_users, num_dims > 0");
            }
            return PrepareParams(s, param_rng);
          },
          spec));
  return out;
}

bool PreparedGenerator::needs_ranges() const {
  return std::holds_alternative<PoissonSpec>(spec_) ||
         std::holds_alternative<CorrelatedSpec>(spec_);
}

void PreparedGenerator::DrawRows(Rng* rng, std::span<double> rows) const {
  // One dispatch per call, into the distribution's monomorphic loop.
  std::visit(
      [&](const auto& s) { Draw(s, params_.data(), num_dims_, rng, rows); },
      spec_);
}

void PreparedGenerator::PostProcess(const ColumnRanges& ranges,
                                    std::span<double> rows) const {
  if (std::holds_alternative<GaussianSpec>(spec_)) {
    for (double& v : rows) v = Clamp(v, -1.0, 1.0);
  } else if (needs_ranges()) {
    const std::size_t d = num_dims_;
    for (std::size_t k = 0; k < rows.size(); k += d) {
      for (std::size_t j = 0; j < d; ++j) {
        const double width = ranges.hi[j] - ranges.lo[j];
        double& v = rows[k + j];
        v = width <= 0.0 ? 0.0 : 2.0 * (v - ranges.lo[j]) / width - 1.0;
      }
    }
  }
}

Result<Dataset> PreparedGenerator::Finish(std::vector<double> rows) const {
  ColumnRanges ranges;
  if (needs_ranges()) {
    ranges = ColumnRanges(num_dims_);
    ranges.Add(rows);
  }
  PostProcess(ranges, rows);
  return Dataset::Adopt(num_users_, num_dims_, std::move(rows));
}

Result<Dataset> Generate(const GeneratorSpec& spec, Rng* rng) {
  HDLDP_ASSIGN_OR_RETURN(const PreparedGenerator generator,
                         PreparedGenerator::Prepare(spec, rng));
  std::vector<double> rows(generator.num_users() * generator.num_dims());
  generator.DrawRows(rng, rows);
  return generator.Finish(std::move(rows));
}

double AveragePairwiseCorrelation(const Dataset& dataset,
                                  std::size_t max_pairs, Rng* rng) {
  if (dataset.num_dims() < 2 || max_pairs == 0) return 0.0;
  NeumaierSum acc;
  std::size_t used = 0;
  for (std::size_t p = 0; p < max_pairs; ++p) {
    const auto a = static_cast<std::size_t>(rng->UniformInt(dataset.num_dims()));
    auto b = static_cast<std::size_t>(rng->UniformInt(dataset.num_dims()));
    if (a == b) b = (b + 1) % dataset.num_dims();
    RunningMoments ma, mb;
    NeumaierSum cross;
    for (std::size_t i = 0; i < dataset.num_users(); ++i) {
      ma.Add(dataset.At(i, a));
      mb.Add(dataset.At(i, b));
    }
    for (std::size_t i = 0; i < dataset.num_users(); ++i) {
      cross.Add((dataset.At(i, a) - ma.Mean()) * (dataset.At(i, b) - mb.Mean()));
    }
    const double denom = std::sqrt(ma.PopulationVariance() *
                                   mb.PopulationVariance()) *
                         static_cast<double>(dataset.num_users());
    if (denom > 0.0) {
      acc.Add(std::abs(cross.Total() / denom));
      ++used;
    }
  }
  return used == 0 ? 0.0 : acc.Total() / static_cast<double>(used);
}

}  // namespace data
}  // namespace hdldp
