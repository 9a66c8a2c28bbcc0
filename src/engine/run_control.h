// engine::RunControl — the run controls every chunked estimation shares.
//
// Mean, frequency and variance estimation differ in what a user row
// looks like; they do not differ in how a run is seeded, retried,
// quarantined or checkpointed. Those controls are declared once here,
// inherited by each statistic's options struct (protocol::
// PipelineOptions, freq::FrequencyOptions, hdr4me::VarianceOptions) and
// handed unchanged down to engine::ReduceChunksResumable. The carve-outs
// (which statistic/encoding/scheme combinations may checkpoint) live in
// one place too: protocol::ValidateRunControl.

#ifndef HDLDP_ENGINE_RUN_CONTROL_H_
#define HDLDP_ENGINE_RUN_CONTROL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.h"

namespace hdldp {
namespace engine {

/// \brief Retry behaviour for transient chunk faults.
///
/// A chunk body that fails with StatusCode::kUnavailable — an I/O
/// hiccup, an injected transient fault — is retried up to max_attempts
/// total attempts with exponential backoff. Retries are invisible to
/// estimates: the scratch accumulator is Reset() before every attempt
/// and the body re-derives all random streams from the chunk seed, so a
/// run with recovered transient faults is bit-identical to a fault-free
/// run. Any other error code fails (or quarantines) immediately.
struct RetryPolicy {
  /// Total attempts per chunk; 1 means no retry.
  int max_attempts = 1;
  /// Backoff before retry k (1-based count of failures so far):
  /// initial_backoff_ms << (k - 1) milliseconds. 0 retries immediately.
  std::uint64_t initial_backoff_ms = 0;
  /// Overall wall-clock retry deadline per chunk in milliseconds; 0
  /// means unlimited. The deadline arms at the chunk's first failure;
  /// once that much time has elapsed no further retries are scheduled
  /// (the chunk fails as if the last attempt had just run), so a
  /// persistent outage cannot hold a run hostage for the full
  /// exponential ladder. Retries that do run stay bit-identical — the
  /// deadline only cuts the ladder short, never alters an attempt.
  std::uint64_t max_total_backoff_ms = 0;
  /// Injectable sleep, so tests assert the backoff sequence without
  /// wall-clock waits. Defaults (nullptr) to std::this_thread sleep.
  std::function<void(std::uint64_t backoff_ms)> sleep;
  /// Injectable monotonic clock in milliseconds for the
  /// max_total_backoff_ms deadline. Defaults (nullptr) to
  /// std::chrono::steady_clock.
  std::function<std::uint64_t()> now_ms;
};

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
  /// Retry policy for transient (kUnavailable) chunk faults.
  RetryPolicy retry;
  /// Explicit opt-in: quarantine chunks that still fail after retries
  /// (kUnavailable / kDataLoss) instead of failing the run. Estimates
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

}  // namespace engine
}  // namespace hdldp

#endif  // HDLDP_ENGINE_RUN_CONTROL_H_
