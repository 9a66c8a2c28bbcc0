// engine::RunControl — the run controls every chunked estimation shares.
//
// Mean, frequency and variance estimation differ in what a user row
// looks like; they do not differ in how a run is seeded, retried,
// quarantined or checkpointed. Those controls are declared once here,
// inherited by each statistic's options struct (protocol::
// PipelineOptions, freq::FrequencyOptions, hdr4me::VarianceOptions) and
// handed unchanged to engine::ChunkedEstimation. The retry policy is a
// property of pulling a chunk, not of reducing one: every pull of a run
// — the estimate pass's and each reference pass's (ground truth, HDR4ME
// marginals) — retries through data::PullChunk under `retry`, while the
// reduction (engine::ReduceChunksResumable) only quarantines and
// checkpoints. The carve-outs (which statistic/encoding/scheme
// combinations may checkpoint) live in one place too:
// protocol::ValidateRunControl.
//
// What a run's controls did — the chunks it quarantined, the users that
// survived them, whether it resumed — is declared once as well
// (RunOutcome). protocol::ReduceMeanChunks produces it, refusing a run
// with no surviving user, and every statistic's result carries it
// unchanged (variance: one per half).

#ifndef HDLDP_ENGINE_RUN_CONTROL_H_
#define HDLDP_ENGINE_RUN_CONTROL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/chunk_source.h"

namespace hdldp {
namespace engine {

/// \brief The statistic-independent controls of one estimation run.
///
/// Estimates are a pure function of (data, statistic options, seed,
/// seed_scheme, allow_missing_chunks): the population is decomposed into
/// fixed 4096-user chunks whose streams derive from (seed, chunk) and
/// whose partial aggregates reduce through the deterministic engine
/// tree, so neither the worker count nor retries nor a resume from
/// checkpoint can move a bit.
struct RunControl {
  /// Seed of the run; all chunk streams derive from it.
  std::uint64_t seed = 1;
  /// RNG stream contract (see common/rng_lanes.h). kV3Batched (default)
  /// perturbs through the prepared sampler plan with the four lane
  /// streams of ChunkSeed(seed, chunk); dense (every dimension reported)
  /// runs are laid out exactly as kV2Lanes while sampled runs batch many
  /// users' entries into each lane span — the fast path, invariant to
  /// SIMD-vs-scalar builds. kV2Lanes replays the per-user sampled lane
  /// spans of the first lane-era releases; kV1Scalar replays each
  /// pipeline's frozen pre-lane scalar body, bit for bit under old seeds.
  /// The compact encodings (oue, olh, hadamard1) follow their own frozen
  /// scalar contract and ignore this field.
  SeedScheme seed_scheme = SeedScheme::kV3Batched;
  /// Retry policy of every chunk pull of the run (data::PullChunk), for
  /// transient (kUnavailable) faults.
  data::RetryPolicy retry;
  /// Explicit opt-in: quarantine chunks that still fail after their pull's
  /// retries (kUnavailable / kDataLoss) instead of failing the run. Estimates
  /// then cover the surviving users only — per-dimension averages
  /// already divide by received report counts and ground truths are
  /// recomputed over the same users — and the result names every
  /// quarantined chunk. It changes the estimand, hence the opt-in.
  bool allow_missing_chunks = false;
  /// Checkpoint file path; empty disables checkpointing. With a path,
  /// per-group accumulator state persists as the run progresses
  /// (protocol/snapshot.h); re-running after a crash resumes from the
  /// file with bit-identical final estimates, and a completed run
  /// removes its spent checkpoint. Variance checkpoints its two halves
  /// at `path + ".values"` and `path + ".squares"`. Which runs may
  /// checkpoint is decided by protocol::ValidateRunControl.
  std::string checkpoint_path;
};

/// \brief What one reduction's run controls did: the facts every
/// statistic reports beside its estimates, and the population its
/// deviation model counts (HDR4ME's r_j = surviving_users * m / d).
struct RunOutcome {
  /// Chunks skipped under allow_missing_chunks, sorted ascending (empty
  /// on a fault-free run).
  std::vector<std::size_t> quarantined_chunks;
  /// Users whose reports were folded: num_users minus the users of the
  /// quarantined chunks. protocol::ReduceMeanChunks refuses a run where
  /// it would be 0.
  std::size_t surviving_users = 0;
  /// True iff the run continued from a prior checkpoint.
  bool resumed_from_checkpoint = false;
};

}  // namespace engine
}  // namespace hdldp

#endif  // HDLDP_ENGINE_RUN_CONTROL_H_
