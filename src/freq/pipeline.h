// High-dimensional frequency estimation with HDR4ME re-calibration
// (paper Section V-C).
//
// Protocol: each user one-hot encodes her categorical tuple, samples m of
// the d categorical dimensions, and perturbs *every entry* of each sampled
// dimension's encoding with budget eps / (2m) (the [37] composition the
// paper adopts: an encoded dimension changes at most 2 entries, so
// eps/(2m) per entry keeps the report eps-LDP overall). The collector
// averages per entry to estimate frequencies, then HDR4ME re-calibrates
// the expanded (sum_j v_j)-dimensional mean exactly as in mean estimation.
//
// The kV2Lanes ingestion is a thin workload config over
// engine::ChunkedEstimation (engine/chunked_estimation.h), sharing its
// chunk scheduling, stream seeding, plan dispatch and reduction tree with
// the mean pipeline; only the one-hot row encoding lives here.

#ifndef HDLDP_FREQ_PIPELINE_H_
#define HDLDP_FREQ_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/chunk_source.h"
#include "engine/run_control.h"
#include "freq/encoding.h"
#include "hdr4me/recalibrate.h"
#include "mech/mechanism.h"
#include "protocol/wire.h"

namespace hdldp {
namespace freq {

/// Configuration of a frequency-estimation run. The run controls (seed,
/// seed_scheme, retry, allow_missing_chunks, checkpoint_path) are
/// engine::RunControl's, documented there; under kV1Scalar the serial
/// loop retries pulls like every run but cannot quarantine or checkpoint.
struct FrequencyOptions : engine::RunControl {
  /// Collective per-user privacy budget.
  double total_epsilon = 1.0;
  /// Categorical dimensions sampled per user (m); 0 means all d.
  std::size_t report_dims = 0;
  /// Maximum worker threads simulating chunks concurrently (on the shared
  /// ThreadPool). 1 = serial, 0 = one per hardware thread. Affects
  /// wall-clock time only, never the estimates. Under kV1Scalar only the
  /// ground-truth pass uses them: that ingestion is single-stream by
  /// definition.
  std::size_t num_threads = 1;
  /// HDR4ME configuration for the re-calibrated estimate.
  hdr4me::Hdr4meOptions hdr4me;
  /// Post-process estimates: clip to [0, 1] and renormalize each
  /// dimension to sum to 1.
  bool clip_and_normalize = true;
  /// Report encoding. kDense runs the numeric path above (every
  /// one-hot entry perturbed by `mechanism` at eps/(2m)); kOue/kOlh run
  /// the frequency-oracle path: one randomized categorical report per
  /// sampled dimension at eps/m, O(1) client draws per dimension, 0/1
  /// support indicators folded exactly into the same per-entry
  /// MeanAggregator (so oracle runs checkpoint like numeric ones), and
  /// the analytic binomial deviation model feeding HDR4ME. Oracle draws
  /// follow their own frozen scalar per-chunk stream contract
  /// (common/rng_lanes.h, "compact encodings"); seed_scheme does not
  /// alter them, and estimates remain bit-identical across thread
  /// counts, sources and SIMD builds.
  /// kHadamard1 is a mean encoding and is rejected here.
  protocol::ReportEncoding encoding = protocol::ReportEncoding::kDense;
};

/// Outcome of a frequency-estimation run: the estimates and their
/// scores, plus the run's engine::RunOutcome.
struct FrequencyEstimationResult {
  /// Ground-truth per-dimension, per-category frequencies.
  std::vector<std::vector<double>> true_frequencies;
  /// Naive aggregation estimate.
  std::vector<std::vector<double>> raw;
  /// HDR4ME-re-calibrated estimate.
  std::vector<std::vector<double>> recalibrated;
  /// Budget spent per unit of randomness: eps / (2m) per encoded entry
  /// on the numeric path, eps / m per sampled dimension under a
  /// frequency-oracle encoding (the oracle randomizes the whole answer
  /// at once).
  double per_entry_epsilon = 0.0;
  /// MSE of raw/recalibrated estimates over all entries.
  double mse_raw = 0.0;
  double mse_recalibrated = 0.0;
  /// The run's quarantined chunks, surviving users and resume, as the
  /// reduction reported them (protocol::ReduceMeanChunks; the kV1Scalar
  /// serial loop quarantines nothing and never resumes).
  engine::RunOutcome outcome;
};

/// \brief Runs the full frequency-estimation protocol over any chunked
/// data source. `source` must deliver category indices as doubles (one
/// column per categorical dimension, each value integral and <
/// schema.Cardinality(j)); a CategoricalChunkSource adapts a resident
/// CategoricalDataset, and shard directories written from one stream
/// back through data::ShardFileSource. Every chunk is validated against
/// the schema before perturbation. For a fixed (values, options), the
/// estimate is bit-identical across source kinds and thread counts.
///
/// Fails with FailedPrecondition if every chunk was quarantined or any
/// categorical dimension ends the ingestion phase with zero reports (the
/// Lemma 3 model is undefined at r = 0): raise num_users or report_dims
/// instead of trusting estimates that silently pretended r = 1.
Result<FrequencyEstimationResult> RunFrequencyEstimation(
    const data::ChunkSource& source, const CategoricalSchema& schema,
    mech::MechanismPtr mechanism, const FrequencyOptions& options);

/// \brief Resident-dataset convenience wrapper: adapts `dataset` through
/// CategoricalChunkSource and runs the source overload.
Result<FrequencyEstimationResult> RunFrequencyEstimation(
    const CategoricalDataset& dataset, mech::MechanismPtr mechanism,
    const FrequencyOptions& options);

}  // namespace freq
}  // namespace hdldp

#endif  // HDLDP_FREQ_PIPELINE_H_
