#include "hdr4me/variance.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/math.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"
#include "protocol/run_control.h"

namespace hdldp {
namespace hdr4me {

namespace {

// HDR4ME pass over one half's estimate, with per-dimension models built
// from that half's empirical marginals (the first <= 2000 rows,
// materialized from the half's source — a bounded gather regardless of
// population size).
Result<std::vector<double>> RecalibrateHalf(
    const data::ChunkSource& half, const mech::Mechanism& mechanism,
    const std::vector<double>& estimate, double per_dim_eps,
    const mech::Interval& data_domain, const Hdr4meOptions& options,
    double reports) {
  const std::size_t rows = std::min<std::size_t>(half.num_users(), 2000);
  const std::size_t d = half.num_dims();
  HDLDP_ASSIGN_OR_RETURN(const std::vector<double> marginals,
                         data::MaterializeRows(half, 0, rows));
  std::vector<framework::GaussianDeviation> deviations;
  deviations.reserve(d);
  std::vector<double> column(rows);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < rows; ++i) column[i] = marginals[i * d + j];
    HDLDP_ASSIGN_OR_RETURN(
        const framework::ValueDistribution values,
        framework::ValueDistribution::FromSamples(column, 16));
    HDLDP_ASSIGN_OR_RETURN(
        const framework::DeviationModel model,
        framework::ModelDeviation(mechanism, per_dim_eps, values, reports,
                                  data_domain));
    deviations.push_back(model.deviation);
  }
  HDLDP_ASSIGN_OR_RETURN(const RecalibrationResult result,
                         Recalibrate(estimate, deviations, options));
  return result.enhanced_mean;
}

}  // namespace

Result<VarianceEstimationResult> RunVarianceEstimation(
    const data::ChunkSource& source, mech::MechanismPtr mechanism,
    const VarianceOptions& options) {
  HDLDP_RETURN_NOT_OK(protocol::ValidateRunControl(
      options, protocol::ReportEncoding::kDense,
      protocol::Workload::kVariance));
  if (mechanism == nullptr) {
    return Status::InvalidArgument("variance estimation requires a mechanism");
  }
  const std::size_t n = source.num_users();
  const std::size_t d = source.num_dims();
  if (n < 2) {
    return Status::InvalidArgument(
        "variance estimation requires >= 2 users to split");
  }
  // Half A keeps the raw values, half B the squares. Both halves (and
  // the square/embedding stages) are lazy views over `source` — each
  // chunk is sliced or transformed on pull, so nothing is materialized.
  const std::size_t half_a = n / 2;
  const data::SlicedChunkSource values_half(&source, 0, half_a);
  const data::SlicedChunkSource raw_half_b(&source, half_a, n - half_a);
  const data::TransformedChunkSource squares_half(&raw_half_b, [](double v) {
    const double c = Clamp(v, -1.0, 1.0);
    return c * c;
  });
  // The squares live in [0, 1]; the generic pipeline assumes the [-1, 1]
  // data domain, so run the squares through the affine embedding
  // u = 2v - 1 and invert afterwards.
  const data::TransformedChunkSource squares_embedded(
      &squares_half, [](double v) { return 2.0 * v - 1.0; });

  // Mean estimation on both halves. The halves checkpoint independently
  // (suffixes keep the two snapshot files distinct; their digests also
  // differ through the seed XOR), so a crash in either half resumes that
  // half exactly where it stopped. A completed half's checkpoint is
  // spent and removed, so re-running it recomputes deterministically —
  // bit-identical either way.
  protocol::PipelineOptions mean_opts;
  static_cast<engine::RunControl&>(mean_opts) = options;
  mean_opts.total_epsilon = options.total_epsilon;
  mean_opts.report_dims = options.report_dims;
  if (!options.checkpoint_path.empty()) {
    mean_opts.checkpoint_path = options.checkpoint_path + ".values";
  }
  HDLDP_ASSIGN_OR_RETURN(
      const auto mean_run,
      protocol::RunMeanEstimation(values_half, mechanism, mean_opts));

  protocol::PipelineOptions square_opts = mean_opts;
  square_opts.seed = options.seed ^ 0x5ECC0ull;
  if (!options.checkpoint_path.empty()) {
    square_opts.checkpoint_path = options.checkpoint_path + ".squares";
  }
  HDLDP_ASSIGN_OR_RETURN(
      const auto square_run,
      protocol::RunMeanEstimation(squares_embedded, mechanism, square_opts));

  VarianceEstimationResult result;
  result.quarantined_values_chunks = mean_run.quarantined_chunks;
  result.quarantined_squares_chunks = square_run.quarantined_chunks;
  result.surviving_users =
      mean_run.surviving_users + square_run.surviving_users;
  result.resumed_from_checkpoint =
      mean_run.resumed_from_checkpoint || square_run.resumed_from_checkpoint;
  result.estimated_mean = mean_run.estimated_mean;
  result.estimated_second_moment.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    // Undo the [0,1] -> [-1,1] embedding.
    result.estimated_second_moment[j] =
        0.5 * (square_run.estimated_mean[j] + 1.0);
  }

  if (options.recalibrate) {
    const double m = options.report_dims == 0
                         ? static_cast<double>(d)
                         : static_cast<double>(options.report_dims);
    const double eps_per_dim = options.total_epsilon / m;
    const double reports_a = static_cast<double>(values_half.num_users()) *
                             m / static_cast<double>(d);
    const double reports_b = static_cast<double>(squares_half.num_users()) *
                             m / static_cast<double>(d);
    HDLDP_ASSIGN_OR_RETURN(
        result.estimated_mean,
        RecalibrateHalf(values_half, *mechanism, result.estimated_mean,
                        eps_per_dim, {-1.0, 1.0}, options.hdr4me, reports_a));
    // The second moment lives in [0, 1]; re-calibrate in that domain.
    HDLDP_ASSIGN_OR_RETURN(
        result.estimated_second_moment,
        RecalibrateHalf(squares_half, *mechanism,
                        result.estimated_second_moment, eps_per_dim,
                        {0.0, 1.0}, options.hdr4me, reports_b));
  }

  // Combine and score.
  result.estimated_variance.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    result.estimated_variance[j] =
        std::max(0.0, result.estimated_second_moment[j] -
                          Sq(result.estimated_mean[j]));
  }
  // True variance: one streaming pass, chunks in user order, so the
  // per-dimension compensated sums match the resident-dataset loop bit
  // for bit.
  HDLDP_ASSIGN_OR_RETURN(const std::vector<double> true_mean,
                         source.TrueMean());
  std::vector<NeumaierSum> acc(d);
  data::ChunkBuffer buffer;
  for (std::size_t c = 0; c < source.num_chunks(); ++c) {
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           source.Chunk(c, &buffer));
    const std::size_t users = source.ChunkUsers(c);
    for (std::size_t i = 0; i < users; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        acc[j].Add(Sq(rows[i * d + j] - true_mean[j]));
      }
    }
  }
  result.true_variance.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    result.true_variance[j] = acc[j].Total() / static_cast<double>(n);
  }
  HDLDP_ASSIGN_OR_RETURN(
      result.mse, protocol::MeanSquaredError(result.estimated_variance,
                                             result.true_variance));
  return result;
}

Result<VarianceEstimationResult> RunVarianceEstimation(
    const data::Dataset& dataset, mech::MechanismPtr mechanism,
    const VarianceOptions& options) {
  const data::ResidentChunkSource source(&dataset);
  return RunVarianceEstimation(source, std::move(mechanism), options);
}

}  // namespace hdr4me
}  // namespace hdldp
