#include "hdr4me/recalibrate.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/thread_pool.h"
#include "framework/value_distribution.h"

namespace hdldp {
namespace hdr4me {

namespace {

// MarginalDeviations' sample: rows per dimension, and the support points
// of the empirical distribution built from them.
constexpr std::size_t kMarginalRows = 2000;
constexpr std::size_t kMarginalPoints = 16;
// Every chunk but the last holds kUsersPerChunk users, and a last chunk
// that is the first survivor holds every surviving user: the sample is
// always the head of the first surviving chunk.
static_assert(kMarginalRows <= data::kUsersPerChunk);
// Columns gathered per MarginalDeviations task: each row contributes one
// contiguous 128-byte segment to the block's transpose, where a column at
// a time would pull a cache line per double.
constexpr std::size_t kBlockColumns = 16;

Status ValidatePair(std::span<const double> theta_hat,
                    std::span<const double> lambda) {
  if (theta_hat.empty() || theta_hat.size() != lambda.size()) {
    return Status::InvalidArgument(
        "recalibration requires matching non-empty theta_hat/lambda");
  }
  for (const double l : lambda) {
    if (!(l >= 0.0)) {
      return Status::InvalidArgument("recalibration requires lambda >= 0");
    }
  }
  return Status::OK();
}
}  // namespace

double SoftThreshold(double value, double lambda) {
  if (value > lambda) return value - lambda;
  if (value < -lambda) return value + lambda;
  return 0.0;
}

Result<std::vector<double>> RecalibrateL1(std::span<const double> theta_hat,
                                          std::span<const double> lambda) {
  HDLDP_RETURN_NOT_OK(ValidatePair(theta_hat, lambda));
  std::vector<double> out(theta_hat.size());
  for (std::size_t j = 0; j < theta_hat.size(); ++j) {
    out[j] = SoftThreshold(theta_hat[j], lambda[j]);
  }
  return out;
}

Result<std::vector<double>> RecalibrateL2(std::span<const double> theta_hat,
                                          std::span<const double> lambda) {
  HDLDP_RETURN_NOT_OK(ValidatePair(theta_hat, lambda));
  std::vector<double> out(theta_hat.size());
  for (std::size_t j = 0; j < theta_hat.size(); ++j) {
    out[j] = theta_hat[j] / (1.0 + 2.0 * lambda[j]);
  }
  return out;
}

Result<RecalibrationResult> Recalibrate(
    std::span<const double> theta_hat,
    std::span<const framework::GaussianDeviation> deviations,
    const Hdr4meOptions& options) {
  if (theta_hat.size() != deviations.size()) {
    return Status::InvalidArgument(
        "Recalibrate requires one deviation model per dimension");
  }
  RecalibrationResult result;
  switch (options.regularizer) {
    case Regularizer::kL1: {
      HDLDP_ASSIGN_OR_RETURN(result.lambda,
                             SelectLambdaL1(deviations, options.lambda));
      HDLDP_ASSIGN_OR_RETURN(result.enhanced_mean,
                             RecalibrateL1(theta_hat, result.lambda));
      break;
    }
    case Regularizer::kL2: {
      HDLDP_ASSIGN_OR_RETURN(
          result.lambda,
          SelectLambdaL2(deviations, theta_hat, options.lambda));
      HDLDP_ASSIGN_OR_RETURN(result.enhanced_mean,
                             RecalibrateL2(theta_hat, result.lambda));
      break;
    }
  }
  for (const double v : result.enhanced_mean) {
    if (v == 0.0) ++result.zeroed_dims;
  }
  return result;
}

namespace {
Result<double> ImprovementProbability(
    std::span<const framework::GaussianDeviation> deviations,
    double threshold) {
  HDLDP_ASSIGN_OR_RETURN(
      const framework::MultivariateDeviation law,
      framework::MultivariateDeviation::Create(std::vector(
          deviations.begin(), deviations.end())));
  return law.ProbThresholdExceeded(threshold);
}
}  // namespace

Result<double> ImprovementProbabilityL1(
    std::span<const framework::GaussianDeviation> deviations) {
  return ImprovementProbability(deviations, 1.0);  // Lemma 4 threshold.
}

Result<double> ImprovementProbabilityL2(
    std::span<const framework::GaussianDeviation> deviations) {
  return ImprovementProbability(deviations, 2.0);  // Lemma 5 threshold.
}

Result<std::vector<framework::GaussianDeviation>> MarginalDeviations(
    const data::ChunkSource& source,
    const std::vector<std::size_t>& quarantined, std::size_t report_dims,
    const mech::Mechanism& mechanism, double eps_per_dim,
    const mech::Interval& data_domain, std::size_t max_concurrency,
    const data::RetryPolicy& retry) {
  const std::size_t d = source.num_dims();
  const std::size_t surviving = source.SurvivingUsers(quarantined);
  if (surviving == 0 || d == 0) {
    return Status::FailedPrecondition(
        "HDR4ME marginals require surviving users; every chunk was "
        "quarantined");
  }
  const std::size_t rows = std::min(surviving, kMarginalRows);
  std::size_t first_survivor = 0;
  for (const std::size_t c : quarantined) {
    if (c == first_survivor) ++first_survivor;
  }
  data::ChunkBuffer buffer;
  HDLDP_ASSIGN_OR_RETURN(
      const std::span<const double> chunk,
      data::PullChunk(source, first_survivor, &buffer, retry));
  const std::span<const double> marginals = chunk.first(rows * d);
  // r_j counts the users whose reports were folded: quarantined chunks
  // contributed none.
  const double m = static_cast<double>(report_dims == 0 ? d : report_dims);
  const double reports =
      static_cast<double>(surviving) * m / static_cast<double>(d);
  const auto model_column = [&](std::span<const double> column)
      -> Result<framework::GaussianDeviation> {
    HDLDP_ASSIGN_OR_RETURN(
        const framework::ValueDistribution values,
        framework::ValueDistribution::FromSamples(column, kMarginalPoints));
    HDLDP_ASSIGN_OR_RETURN(
        const framework::DeviationModel model,
        framework::ModelDeviation(mechanism, eps_per_dim, values, reports,
                                  data_domain));
    return model.deviation;
  };
  // Each block transposes its columns out of the row-major sample and
  // models them; dimension j writes only slot j, so neither the models
  // nor the reported error depend on how blocks land on threads.
  std::vector<framework::GaussianDeviation> deviations(d);
  std::vector<Status> failures(d);
  const auto model_block = [&](std::size_t block) {
    const std::size_t first = block * kBlockColumns;
    const std::size_t width = std::min(kBlockColumns, d - first);
    std::vector<double> columns(width * rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const double* segment = marginals.data() + i * d + first;
      for (std::size_t k = 0; k < width; ++k) {
        columns[k * rows + i] = segment[k];
      }
    }
    for (std::size_t k = 0; k < width; ++k) {
      Result<framework::GaussianDeviation> deviation =
          model_column({columns.data() + k * rows, rows});
      if (!deviation.ok()) {
        failures[first + k] = deviation.status();
        return;
      }
      deviations[first + k] = *deviation;
    }
  };
  ThreadPool::Shared().ParallelFor(
      0, (d + kBlockColumns - 1) / kBlockColumns, model_block,
      max_concurrency);
  for (const Status& failure : failures) HDLDP_RETURN_NOT_OK(failure);
  return deviations;
}

}  // namespace hdr4me
}  // namespace hdldp
