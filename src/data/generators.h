// Synthetic dataset generators matching Section VI of the paper.
//
//  * Uniform  - tunable users/dimensions, i.i.d. uniform on [-1, 1].
//  * Gaussian - stddev 1/16 everywhere; 10% of dimensions have mean 0.9,
//               the remaining 90% mean 0 (values clamped into [-1, 1]).
//  * Poisson  - each dimension Poisson with a random expectation drawn
//               from [1, 99], then min-max normalized into [-1, 1].
//  * Correlated ("COV-19 surrogate") - Gaussian-copula factor model in
//               which every pair of dimensions is highly correlated,
//               min-max normalized into [-1, 1]; stands in for the
//               non-redistributable CORD-19-derived matrix (150,000 users
//               x 750 dims, "each dimension has high correlations with
//               others"). See DESIGN.md "Substitutions".
//  * Discrete - i.i.d. draws from an explicit (value, probability) list;
//               used by the Section IV-C case study (values 0.1..1.0,
//               p = 10% each).
//
// Each distribution has one body, PreparedGenerator: Prepare validates
// the spec and draws its population parameters (Poisson expectations,
// correlated loadings, discrete CDF), DrawRows draws the raw values of
// any span of users from the Rng it is handed, and PostProcess maps raw
// rows into [-1, 1]. Two stream contracts wire that body, and both are
// frozen:
//
//   * classic (Generate below): parameters, then every row, from the
//     caller's single sequential Rng;
//   * chunk-keyed (data/generator_source.h): parameters and each chunk's
//     rows from their own tagged streams, so chunk c is reproducible
//     without generating chunks 0..c-1.

#ifndef HDLDP_DATA_GENERATORS_H_
#define HDLDP_DATA_GENERATORS_H_

#include <cstddef>
#include <span>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace hdldp {
namespace data {

/// Parameters of the Uniform dataset.
struct UniformSpec {
  std::size_t num_users = 0;
  std::size_t num_dims = 0;
  double lo = -1.0;
  double hi = 1.0;
};

/// Parameters of the Gaussian dataset (paper Section VI, item 2).
struct GaussianSpec {
  std::size_t num_users = 0;
  std::size_t num_dims = 0;
  /// Standard deviation of every dimension.
  double stddev = 1.0 / 16.0;
  /// Mean of the "signal" dimensions.
  double high_mean = 0.9;
  /// Fraction of dimensions carrying the signal mean (the first
  /// ceil(fraction * d) dimensions).
  double high_fraction = 0.1;
  /// Mean of the remaining dimensions.
  double low_mean = 0.0;
};

/// Parameters of the Poisson dataset (paper Section VI, item 3).
struct PoissonSpec {
  std::size_t num_users = 0;
  std::size_t num_dims = 0;
  /// Per-dimension expectations are drawn uniformly from
  /// [min_expectation, max_expectation].
  double min_expectation = 1.0;
  double max_expectation = 99.0;
};

/// Parameters of the correlated COV-19 surrogate.
struct CorrelatedSpec {
  std::size_t num_users = 0;
  std::size_t num_dims = 0;
  /// Number of shared latent factors; small values keep all pairwise
  /// correlations high, as the paper describes for COV-19.
  std::size_t num_factors = 3;
  /// Weight of the shared factors vs. idiosyncratic noise, in (0, 1).
  /// Pairwise correlation is roughly factor_weight^2 on average.
  double factor_weight = 0.85;
};

/// Parameters of a discrete-support dataset.
struct DiscreteSpec {
  std::size_t num_users = 0;
  std::size_t num_dims = 0;
  /// Support values; every dimension draws i.i.d. from this list.
  std::vector<double> values;
  /// Probabilities matching `values` (must sum to 1 within 1e-9).
  std::vector<double> probabilities;
};

/// Any synthetic dataset specification.
using GeneratorSpec = std::variant<UniformSpec, GaussianSpec, PoissonSpec,
                                   CorrelatedSpec, DiscreteSpec>;

/// \brief Per-dimension [lo, hi] of raw draws, accumulated block by block
/// (min/max commute, so any block order yields the same ranges).
struct ColumnRanges {
  explicit ColumnRanges(std::size_t num_dims = 0);
  /// Widens the ranges by a block of whole rows (row-major).
  void Add(std::span<const double> rows);

  std::vector<double> lo;
  std::vector<double> hi;
};

/// \brief A validated spec with its population parameters drawn: the
/// one body of each distribution, shared by both stream contracts.
class PreparedGenerator {
 public:
  /// Validates `spec` and draws its parameters from `param_rng`.
  static Result<PreparedGenerator> Prepare(const GeneratorSpec& spec,
                                           Rng* param_rng);

  std::size_t num_users() const { return num_users_; }
  std::size_t num_dims() const { return num_dims_; }
  /// Whether PostProcess min-max normalizes, i.e. needs the ranges of
  /// the whole population's raw draws.
  bool needs_ranges() const;

  /// Draws the raw values of rows.size() / num_dims() users from `rng`,
  /// user-major then dimension-major.
  void DrawRows(Rng* rng, std::span<double> rows) const;

  /// Maps raw rows into [-1, 1]: Gaussian clamps, Poisson and Correlated
  /// min-max normalize against `ranges` (constant dimensions map to 0),
  /// Uniform and Discrete are left as drawn.
  void PostProcess(const ColumnRanges& ranges, std::span<double> rows) const;

  /// \brief Post-processes a whole population of raw rows in place (the
  /// ranges, when needed, come from the rows themselves) and adopts it
  /// as a Dataset without copying.
  Result<Dataset> Finish(std::vector<double> rows) const;

 private:
  PreparedGenerator() = default;

  GeneratorSpec spec_;
  std::size_t num_users_ = 0;
  std::size_t num_dims_ = 0;
  // The population parameters: Poisson per-dimension expectations,
  // Correlated normalized loadings (d x num_factors), or Discrete
  // cumulative probabilities; empty for Uniform and Gaussian.
  std::vector<double> params_;
};

/// \brief The classic contract: `spec`'s parameters, then its rows, from
/// one sequential stream `rng`.
Result<Dataset> Generate(const GeneratorSpec& spec, Rng* rng);

/// \brief Average absolute pairwise Pearson correlation over a column
/// sample; diagnostic used to validate the COV-19 surrogate.
double AveragePairwiseCorrelation(const Dataset& dataset,
                                  std::size_t max_pairs, Rng* rng);

}  // namespace data
}  // namespace hdldp

#endif  // HDLDP_DATA_GENERATORS_H_
