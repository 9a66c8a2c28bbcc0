#include "hdr4me/variance.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/math.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace hdr4me {

Result<VarianceEstimationResult> RunVarianceEstimation(
    const data::ChunkSource& source, mech::MechanismPtr mechanism,
    const VarianceOptions& options) {
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
      protocol::EstimateMean(values_half, mechanism, mean_opts));

  protocol::PipelineOptions square_opts = mean_opts;
  square_opts.seed = options.seed ^ 0x5ECC0ull;
  if (!options.checkpoint_path.empty()) {
    square_opts.checkpoint_path = options.checkpoint_path + ".squares";
  }
  HDLDP_ASSIGN_OR_RETURN(
      const auto square_run,
      protocol::EstimateMean(squares_embedded, mechanism, square_opts));

  VarianceEstimationResult result;
  result.values = mean_run.outcome;
  result.squares = square_run.outcome;
  result.estimated_mean = mean_run.estimated_mean;
  result.per_dim_epsilon = mean_run.per_dim_epsilon;
  result.estimated_second_moment.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    // Undo the [0,1] -> [-1,1] embedding.
    result.estimated_second_moment[j] =
        0.5 * (square_run.estimated_mean[j] + 1.0);
  }

  if (options.recalibrate) {
    // Each half is modelled from its own surviving rows, on the threads
    // its estimation ran with; the second moment lives in [0, 1], so it
    // is modelled in that domain.
    const auto recalibrate_half =
        [&](const data::ChunkSource& half,
            const protocol::MeanEstimationResult& run,
            const mech::Interval& domain, const std::vector<double>& estimate)
        -> Result<std::vector<double>> {
      HDLDP_ASSIGN_OR_RETURN(
          const auto deviations,
          MarginalDeviations(half, run.outcome.quarantined_chunks,
                             options.report_dims, *mechanism,
                             run.per_dim_epsilon, domain,
                             mean_opts.num_threads, options.retry));
      HDLDP_ASSIGN_OR_RETURN(
          RecalibrationResult recalibrated,
          Recalibrate(estimate, deviations, options.hdr4me));
      return std::move(recalibrated.enhanced_mean);
    };
    HDLDP_ASSIGN_OR_RETURN(
        result.estimated_mean,
        recalibrate_half(values_half, mean_run, {-1.0, 1.0},
                         result.estimated_mean));
    HDLDP_ASSIGN_OR_RETURN(
        result.estimated_second_moment,
        recalibrate_half(squares_half, square_run, {0.0, 1.0},
                         result.estimated_second_moment));
  }

  // Combine and score.
  result.estimated_variance.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    result.estimated_variance[j] =
        std::max(0.0, result.estimated_second_moment[j] -
                          Sq(result.estimated_mean[j]));
  }
  // True variance over the users the estimates cover: the surviving
  // chunks of both halves. As in data::SurvivingMean, each chunk's rows
  // fold into their own compensated column sums and the chunks merge in
  // chunk order, half A's and then half B's. One chain of pulls gives
  // the mean, a second the squared deviations from it.
  const data::ChunkPartials<NeumaierColumns> pull_every_chunk;
  const auto fold_surviving =
      [&](const auto& chunk_sums) -> Result<NeumaierColumns> {
    HDLDP_ASSIGN_OR_RETURN(
        NeumaierColumns half_a,
        pull_every_chunk.Finish(values_half, result.values.quarantined_chunks,
                                options.retry, NeumaierColumns(d),
                                chunk_sums));
    return pull_every_chunk.Finish(
        raw_half_b, result.squares.quarantined_chunks, options.retry,
        std::move(half_a), chunk_sums);
  };
  HDLDP_ASSIGN_OR_RETURN(
      const NeumaierColumns sums,
      fold_surviving([d](std::size_t, std::span<const double> rows)
                         -> Result<NeumaierColumns> {
        NeumaierColumns chunk_sums(d);
        chunk_sums.AddRows(rows);
        return chunk_sums;
      }));
  const std::size_t surviving =
      result.values.surviving_users + result.squares.surviving_users;
  const std::vector<double> true_mean = sums.Mean(surviving);
  std::vector<double> deviations;
  HDLDP_ASSIGN_OR_RETURN(
      const NeumaierColumns squares,
      fold_surviving([&](std::size_t, std::span<const double> rows)
                         -> Result<NeumaierColumns> {
        deviations.resize(rows.size());
        for (std::size_t k = 0; k < rows.size(); k += d) {
          for (std::size_t j = 0; j < d; ++j) {
            deviations[k + j] = Sq(rows[k + j] - true_mean[j]);
          }
        }
        NeumaierColumns chunk_sums(d);
        chunk_sums.AddRows(deviations);
        return chunk_sums;
      }));
  result.true_variance = squares.Mean(surviving);
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
