// HDR4ME: High-Dimensional Re-calibration for Mean Estimation (paper
// Section V-B).
//
// The collector's naive estimate theta-hat minimizes the aggregation loss
// L(theta) = (1/2r) sum_i ||t*_i - theta||^2; HDR4ME re-calibrates it by
// solving
//
//   theta* = argmin_theta { L(theta) + R(lambda* o theta) }         (Eq. 23)
//
// whose proximal-gradient derivation collapses to *one-off* per-dimension
// solvers because the loss is separable and its gradient step lands
// exactly on theta-hat:
//
//   L1 (Eq. 34): theta*_j = soft(theta-hat_j, lambda*_j)
//   L2 (Eq. 42): theta*_j = theta-hat_j / (1 + 2 lambda*_j)
//
// No change to any LDP mechanism is required — only the aggregation phase
// is touched, which is what makes HDR4ME mechanism-agnostic.
//
// The per-dimension lambda*_j come from the framework's Lemma 3 deviation
// models. MarginalDeviations is the one place a mean run's models are
// estimated from its data: each dimension's value distribution from a
// bounded sample of the rows the run folded, its report count from the
// surviving users. The variance pipeline, the CLI's mean verb, the
// HDR4ME paper-figure benches and the examples all go through it.

#ifndef HDLDP_HDR4ME_RECALIBRATE_H_
#define HDLDP_HDR4ME_RECALIBRATE_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "data/chunk_source.h"
#include "framework/deviation_model.h"
#include "hdr4me/lambda.h"
#include "mech/mechanism.h"

namespace hdldp {
namespace hdr4me {

/// The regularizer R in Eq. 23.
enum class Regularizer {
  /// R(v) = ||v||_1: sparsifies and shrinks (Lemma 4 / Theorem 3).
  kL1,
  /// R(v) = sum_j v_j... the paper's quadratic penalty sum_j lambda_j
  /// theta_j^2: pure shrinkage (Lemma 5 / Theorem 4).
  kL2,
};

/// \brief Soft-threshold of one value: the Eq. 34 scalar solver.
double SoftThreshold(double value, double lambda);

/// \brief Eq. 34: per-dimension soft threshold of theta-hat by lambda.
/// Sizes must match; lambdas must be >= 0.
Result<std::vector<double>> RecalibrateL1(std::span<const double> theta_hat,
                                          std::span<const double> lambda);

/// \brief Eq. 42: per-dimension shrinkage theta-hat_j / (1 + 2 lambda_j).
Result<std::vector<double>> RecalibrateL2(std::span<const double> theta_hat,
                                          std::span<const double> lambda);

/// End-to-end HDR4ME configuration.
struct Hdr4meOptions {
  Regularizer regularizer = Regularizer::kL1;
  /// lambda* selection knobs (confidence z, L2 reference, gating).
  LambdaOptions lambda;
};

/// Outcome of a re-calibration.
struct RecalibrationResult {
  /// The enhanced mean theta*.
  std::vector<double> enhanced_mean;
  /// The lambda* actually used per dimension.
  std::vector<double> lambda;
  /// Dimensions zeroed by L1 (sparsity introduced by the re-calibration).
  std::size_t zeroed_dims = 0;
};

/// \brief Re-calibrates theta-hat given per-dimension deviation models
/// (the framework supplies them via ModelDeviation).
Result<RecalibrationResult> Recalibrate(
    std::span<const double> theta_hat,
    std::span<const framework::GaussianDeviation> deviations,
    const Hdr4meOptions& options);

/// \brief Per-dimension Lemma 3 deviation models of a mean run over
/// `source`: dimension j's value distribution is the 16-point empirical
/// distribution of its first min(surviving, 2000) values outside the
/// `quarantined` chunks (sorted ascending, as a run reports them), and
/// r_j = surviving * report_dims / d (report_dims 0 = d). Those rows are
/// the head of the first surviving chunk (every chunk but the last holds
/// more than 2000 users), so the sample is one data::PullChunk under
/// `retry` (a run passes its own policy).
///
/// The dimensions are modelled in blocks of 16 columns on the shared
/// ThreadPool, each block transposing its columns out of the row-major
/// sample one 128-byte row segment at a time. `max_concurrency` bounds the threads,
/// calling thread included, with ParallelFor's meaning (0 = the whole
/// pool); a run passes its own thread count (the CLI's --threads).
/// Dimension j writes only its own slot, so the models are bit-identical
/// for every max_concurrency, and on failure the error returned is that
/// of the lowest failing j. FailedPrecondition when no user survives.
Result<std::vector<framework::GaussianDeviation>> MarginalDeviations(
    const data::ChunkSource& source,
    const std::vector<std::size_t>& quarantined, std::size_t report_dims,
    const mech::Mechanism& mechanism, double eps_per_dim,
    const mech::Interval& data_domain = {-1.0, 1.0},
    std::size_t max_concurrency = 0, const data::RetryPolicy& retry = {});

/// \brief Theorem 3's lower bound on the probability that HDR4ME-L1
/// strictly improves the estimate: 1 - P(all |dev_j| <= 1) under the
/// Theorem 1 product law of the given per-dimension deviations.
Result<double> ImprovementProbabilityL1(
    std::span<const framework::GaussianDeviation> deviations);

/// \brief Theorem 4's lower bound for HDR4ME-L2: 1 - P(all |dev_j| <= 2).
Result<double> ImprovementProbabilityL2(
    std::span<const framework::GaussianDeviation> deviations);

}  // namespace hdr4me
}  // namespace hdldp

#endif  // HDLDP_HDR4ME_RECALIBRATE_H_
