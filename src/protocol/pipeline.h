// End-to-end simulation of the high-dimensional LDP mean-estimation
// protocol: n clients sample-and-perturb, the collector aggregates
// (Section VI's experimental loop). Values stream from the client into
// the aggregator, so memory stays O(n*d) for the dataset plus O(d) for
// the collector state even at paper scale.
//
// The run is a thin workload config over engine::ChunkedEstimation
// (engine/chunked_estimation.h): the engine owns chunk scheduling,
// stream seeding, plan dispatch and the deterministic reduction tree;
// this pipeline only says what a user row looks like in the mechanism's
// native domain (dense whole tuples when m == d, gathered sampled
// dimensions when m < d).
//
// RunSingleDimension is the specialized harness behind Figure 2: each user
// includes a tracked dimension with probability m/d (sampling m of d
// without replacement makes every dimension's inclusion marginal m/d), so
// only the tracked dimension's reports are simulated.

#ifndef HDLDP_PROTOCOL_PIPELINE_H_
#define HDLDP_PROTOCOL_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/dataset.h"
#include "engine/run_control.h"
#include "mech/mechanism.h"
#include "protocol/client.h"
#include "protocol/wire.h"

namespace hdldp {
namespace protocol {

/// Configuration of a mean-estimation run. The run controls (seed,
/// seed_scheme, retry, allow_missing_chunks, checkpoint_path) are
/// engine::RunControl's, documented there.
struct PipelineOptions : engine::RunControl {
  /// Collective privacy budget per user.
  double total_epsilon = 1.0;
  /// Dimensions reported per user (m); 0 means all d.
  std::size_t report_dims = 0;
  /// Maximum worker threads simulating chunks concurrently (on the shared
  /// ThreadPool). 1 = serial, 0 = one per hardware thread. Affects
  /// wall-clock time only, never the estimate.
  std::size_t num_threads = 1;
  /// Report encoding. kDense runs the numeric path above (each reported
  /// value perturbed by `mechanism` at eps/m); kHadamard1 runs
  /// the 1-bit path (protocol/hadamard.h): each user's m sampled values
  /// collapse into one randomized sign bit at the full eps, decoded
  /// unbiasedly by Hadamard1Decode. Hadamard draws
  /// follow their own frozen scalar per-chunk stream contract
  /// (common/rng_lanes.h, "compact encodings"); seed_scheme does not
  /// alter them, checkpointing works as usual, and estimates remain
  /// bit-identical across thread counts, sources and SIMD builds.
  /// kOue/kOlh are frequency-oracle encodings and are rejected here.
  ReportEncoding encoding = ReportEncoding::kDense;
};

/// Outcome of a mean-estimation run: the estimate and its score, plus
/// the run's engine::RunOutcome (what quarantine and resume did).
struct MeanEstimationResult {
  /// The collector's naive estimate theta-hat (data domain).
  std::vector<double> estimated_mean;
  /// The ground-truth mean theta-bar of the users the estimate covers:
  /// the whole population, or the surviving users after a quarantine.
  std::vector<double> true_mean;
  /// Reports received per dimension (the paper's r_j).
  std::vector<std::int64_t> report_counts;
  /// Per-dimension privacy budget eps / m actually used.
  double per_dim_epsilon = 0.0;
  /// MSE(theta-hat, theta-bar), paper Eq. 3.
  double mse = 0.0;
  /// The run's quarantined chunks, surviving users and resume, as the
  /// reduction reported them (protocol::ReduceMeanChunks).
  engine::RunOutcome outcome;
};

/// \brief Runs the full protocol over any chunked data source —
/// resident, on-disk shards, or a streaming generator — with
/// `mechanism`. Memory stays O(chunk) for data delivery plus O(d) for
/// the collector state and, over a source that does not own its truth,
/// 16 bytes per dimension per chunk for the ground truth's chunk sums
/// (1/2048 of the values pulled), so n is bounded by disk (or nothing,
/// for generator sources), not RAM. Source values must already lie in
/// [-1, 1] (the paper's normalized data domain); out-of-domain values
/// are clamped by the client. For a fixed (values, options), the
/// estimate is bit-identical across source kinds and thread counts. A
/// run whose every chunk was quarantined is a FailedPrecondition.
Result<MeanEstimationResult> RunMeanEstimation(const data::ChunkSource& source,
                                               mech::MechanismPtr mechanism,
                                               const PipelineOptions& options);

/// \brief RunMeanEstimation without the scoring pass: `true_mean` stays
/// empty and `mse` 0. For callers that score against their own ground
/// truth (the variance halves), so no pass reads the data only to
/// measure it.
Result<MeanEstimationResult> EstimateMean(const data::ChunkSource& source,
                                          mech::MechanismPtr mechanism,
                                          const PipelineOptions& options);

/// \brief Resident-dataset convenience wrapper: adapts `dataset` through
/// data::ResidentChunkSource (zero-copy) and runs the source overload.
Result<MeanEstimationResult> RunMeanEstimation(const data::Dataset& dataset,
                                               mech::MechanismPtr mechanism,
                                               const PipelineOptions& options);

/// Outcome of a single-dimension run.
struct SingleDimensionResult {
  /// Estimated mean of the tracked dimension (data domain).
  double estimated_mean = 0.0;
  /// Number of reports the tracked dimension received.
  std::int64_t report_count = 0;
};

/// \brief Simulates only one dimension of the protocol: each of the
/// `values.size()` users reports it with probability `inclusion_prob`
/// (= m/d), perturbed at `per_dim_epsilon`. Used by the Figure 2 harness,
/// where n*d full simulation would be needlessly quadratic. Values lie
/// in the paper's [-1, 1] data domain.
///
/// Draws follow the SeedScheme::kV1Scalar contract on the caller-owned
/// `rng`: one scalar stream, one Bernoulli + one perturbation draw per
/// included user (see common/rng_lanes.h for the decision record).
/// Recorded fig-2 cells carry the scheme name so a future lane variant
/// becomes a new scheme instead of silently changing draws.
Result<SingleDimensionResult> RunSingleDimension(
    std::span<const double> values, const mech::Mechanism& mechanism,
    double per_dim_epsilon, double inclusion_prob, Rng* rng);

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_PIPELINE_H_
