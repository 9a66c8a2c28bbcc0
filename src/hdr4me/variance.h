// High-dimensional variance estimation under LDP — the "other statistics
// estimation" extension the paper names as future work (Section VII),
// built from the same primitives and enhanced by HDR4ME.
//
// Protocol: the population is split into two halves. Half A runs the
// standard mean-estimation protocol on the values t (data domain
// [-1, 1]) to estimate mu_j = E[t_j]; half B runs it on the squares t^2
// (data domain [0, 1]) to estimate s_j = E[t_j^2]. Each half spends the
// full budget eps on its own report, so every user still satisfies
// eps-LDP, and
//
//   Var_j = s_j - mu_j^2   (clamped to >= 0).
//
// Both halves are plain mean estimations, so the analytical framework
// models them per dimension and HDR4ME re-calibrates them unchanged; the
// variance estimate inherits the enhancement.

#ifndef HDLDP_HDR4ME_VARIANCE_H_
#define HDLDP_HDR4ME_VARIANCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/dataset.h"
#include "engine/run_control.h"
#include "hdr4me/recalibrate.h"
#include "mech/mechanism.h"

namespace hdldp {
namespace hdr4me {

/// Configuration of a variance-estimation run. The run controls (seed,
/// seed_scheme, retry, allow_missing_chunks, checkpoint_path) are
/// engine::RunControl's, documented there, and apply to both internal
/// mean-estimation runs.
struct VarianceOptions : engine::RunControl {
  /// Collective privacy budget per user.
  double total_epsilon = 1.0;
  /// Dimensions reported per user (m); 0 means all d.
  std::size_t report_dims = 0;
  /// Re-calibrate both halves with HDR4ME before combining.
  bool recalibrate = false;
  /// HDR4ME configuration (read when `recalibrate` is set).
  Hdr4meOptions hdr4me;
};

/// Outcome of a variance-estimation run: the estimates and their score,
/// plus one engine::RunOutcome per half.
struct VarianceEstimationResult {
  /// Estimated per-dimension variance (clamped to >= 0).
  std::vector<double> estimated_variance;
  /// Ground-truth population variance over the users the estimates
  /// cover: every user, minus those of quarantined chunks.
  std::vector<double> true_variance;
  /// The two intermediate estimates: mean (data domain [-1, 1]) and
  /// second moment (data domain [0, 1]).
  std::vector<double> estimated_mean;
  std::vector<double> estimated_second_moment;
  /// Per-dimension budget eps / m each half's reports used (each user
  /// reports in one half only, so it spends eps in total).
  double per_dim_epsilon = 0.0;
  /// MSE of the variance estimate against the true variance.
  double mse = 0.0;
  /// Each half's mean-estimation outcome; chunk indices are relative to
  /// that half's sliced source. The estimates cover the surviving users
  /// of both halves.
  engine::RunOutcome values;
  engine::RunOutcome squares;
};

/// \brief Runs the split-population variance-estimation protocol over
/// any chunked data source: the two halves and the square/embedding
/// views are lazy slices/transforms of `source`, never materialized, so
/// out-of-core populations (shard directories, streaming generators)
/// run in O(chunk) data memory. Requires at least 2 users; source
/// values must lie in [-1, 1]. Under allow_missing_chunks the ground
/// truth, the HDR4ME marginals and r_j cover the surviving users only;
/// a half with none left is refused by protocol::ReduceMeanChunks
/// (FailedPrecondition).
Result<VarianceEstimationResult> RunVarianceEstimation(
    const data::ChunkSource& source, mech::MechanismPtr mechanism,
    const VarianceOptions& options);

/// \brief Resident-dataset convenience wrapper: adapts `dataset` through
/// data::ResidentChunkSource (zero-copy) and runs the source overload.
Result<VarianceEstimationResult> RunVarianceEstimation(
    const data::Dataset& dataset, mech::MechanismPtr mechanism,
    const VarianceOptions& options);

}  // namespace hdr4me
}  // namespace hdldp

#endif  // HDLDP_HDR4ME_VARIANCE_H_
