// engine::ChunkedEstimation — the unified lane-parallel estimation core.
//
// Every streaming-aggregation pipeline in hdldp (mean estimation over
// numerical tuples, frequency estimation over one-hot encodings, and any
// future workload) shares the same skeleton:
//
//   1. decompose the population into fixed 4096-user chunks,
//   2. derive each chunk's random streams from (seed, chunk) — and, under
//      SeedScheme::kV2Lanes / kV3Batched, the four lane streams from
//      (seed, chunk, lane) — so draws never depend on scheduling,
//   3. perturb each chunk's values through one prepared mech::SamplerPlan
//      (dense whole-row spans when every dimension is reported; when
//      m < d, cross-user entry blocks under kV3Batched or per-user
//      gathered spans under kV2Lanes),
//   4. reduce the per-chunk partial aggregates through a deterministic
//      two-level tree (engine/reduce.h).
//
// A mean run may also bind the ChunkPartials of its ground truth
// (data/chunk_source.h): ChunkRows then leaves each chunk's compensated
// column sums in that chunk's slot, on the worker that pulled it, so
// scoring needs no second pull of the data and no worker waits for
// another.
//
// Only step 3's per-value body differs between workloads. This class owns
// steps 1, 2 and 4 outright and drives step 3 through small workload
// callbacks, so a pipeline is a thin config: what a user row looks like
// in the mechanism's native domain, and nothing else. protocol/
// pipeline.cc and freq/pipeline.cc are the two instantiations.
//
// Determinism contract: for a fixed (data, seed, seed_scheme), estimates
// are bit-identical for every num_threads value and across SIMD-vs-scalar
// builds (the lane kernels are exactly rounded; see common/rng_lanes.h
// for the full v1/v2 stream contract).

#ifndef HDLDP_ENGINE_CHUNKED_ESTIMATION_H_
#define HDLDP_ENGINE_CHUNKED_ESTIMATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/rng_lanes.h"
#include "common/status.h"
#include "data/chunk_source.h"
#include "engine/reduce.h"
#include "engine/run_control.h"
#include "mech/plan.h"

namespace hdldp {
namespace engine {

/// Users per chunk. A chunk is the unit of determinism AND of scheduling:
/// chunk c always covers users [c * kUsersPerChunk, ...), always draws
/// from the streams derived from ChunkSeed(seed, c), and always reduces
/// in chunk order — so estimates depend only on (data, seed), never on
/// how many workers happened to execute the chunks. The constant lives
/// with the data layer (data/chunk_source.h) because it is also the
/// delivery granularity of every ChunkSource; this alias keeps the
/// engine-side name every pipeline already uses.
inline constexpr std::size_t kUsersPerChunk = data::kUsersPerChunk;

/// Entry budget of the per-block perturbation buffers in the dense
/// driver: blocks of ~this many expanded entries amortize the per-span
/// variant visit while staying cache-resident even for wide rows.
inline constexpr std::size_t kEntriesPerBlock = 16384;

/// Flush threshold of the v3 batched sampled driver. Smaller than the
/// dense block budget: the sampled path streams three parallel arrays
/// (entry indices, natives, perturbed) per block into the in-place
/// scattered fold, and a budget this size keeps them L1/L2-resident
/// while still amortizing the per-block variant visit over thousands of
/// entries. Part of the kV3Batched stream layout (see
/// common/rng_lanes.h) — changing it re-aligns sampled entries to
/// lanes, so it is frozen with the scheme.
inline constexpr std::size_t kSampledEntriesPerBlock = 4096;

/// \brief Reusable scratch of the sampled chunk drivers: the sampled
/// dimension indices, the expanded (entry index, native value) pairs and
/// the perturbed outputs of the block in flight, plus the batch
/// sampler's membership markers. Hoisted out of the per-chunk loop into
/// one instance per worker thread (PerWorkerSampledScratch) so neither
/// the v3 batched driver nor the v2 legacy driver reallocates per chunk.
/// Contents carry no state across uses — every driver clears before
/// writing — so sharing one instance per thread across engine instances
/// and workloads is safe and invisible to outputs.
struct SampledChunkScratch {
  BatchSamplerScratch sampler;
  std::vector<std::uint32_t> sampled;
  std::vector<std::uint32_t> entry_indices;
  std::vector<double> natives;
  std::vector<double> perturbed;
};

/// \brief The calling worker thread's SampledChunkScratch (thread-local,
/// created on first use, reused for every subsequent chunk the thread
/// simulates).
SampledChunkScratch& PerWorkerSampledScratch();

/// \brief One chunk of the schedule: its index, user range and stream
/// seed. A pure function of (num_users, seed, chunk).
struct ChunkRange {
  std::size_t chunk = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t chunk_seed = 0;

  std::size_t num_users() const { return end - begin; }
};

/// \brief Chunk scheduling, stream seeding, plan dispatch and reduction
/// for one estimation run. Cheap value type; thread-compatible (all
/// methods are const and scratch is per worker thread).
class ChunkedEstimation {
 public:
  /// \brief Binds the run to a data source: chunk geometry comes from
  /// `source` (whose chunking is definitionally the engine's), and
  /// ChunkRows() pulls from it. The source must outlive the run and
  /// supports concurrent pulls (each worker thread uses its own buffer).
  /// `control` is the run's seed, stream contract and fault handling
  /// (its checkpoint_path is bound by the pipeline through
  /// ReduceResumable's hooks); `num_threads` bounds the workers
  /// simulating chunks concurrently on the shared ThreadPool (0 = one per
  /// hardware thread) and affects wall-clock time only, never estimates.
  /// A non-null `truth` (a slot per chunk of `source`, outliving the run)
  /// receives the column sums of every chunk ChunkRows pulls.
  ChunkedEstimation(const data::ChunkSource& source, const RunControl& control,
                    std::size_t num_threads,
                    data::ChunkPartials<NeumaierColumns>* truth = nullptr);

  std::size_t num_users() const { return num_users_; }
  std::size_t num_chunks() const { return num_chunks_; }
  /// The run controls; workload bodies dispatch on control().seed_scheme.
  const RunControl& control() const { return control_; }

  /// User range and stream seed of chunk c.
  ChunkRange Range(std::size_t c) const;

  /// \brief The bound source's rows for `range` (row-major,
  /// range.num_users() x d), pulled under control().retry
  /// (data::PullChunk) through the calling worker's thread-local buffer —
  /// valid until that worker's next ChunkRows call, i.e. for the current
  /// chunk body. Index the span by (user - range.begin). A retried pull
  /// touches no random stream, so each chunk body runs once. With a truth
  /// bound, a successful pull also folds the rows into fresh column sums
  /// and stores them in the chunk's slot before it returns — the one
  /// place a mean truth reads the rows the estimate pass pulled. A failed
  /// pull leaves the slot empty.
  Result<std::span<const double>> ChunkRows(const ChunkRange& range) const;

  /// \brief The chunk's four perturbation lane streams (kV2Lanes): lane l
  /// is exactly Rng(LaneSeed(ChunkSeed(seed, chunk), l)).
  RngLanes LaneStreams(const ChunkRange& range) const {
    return RngLanes(range.chunk_seed);
  }

  /// \brief The chunk's single scalar stream (kV1Scalar legacy bodies).
  Rng ScalarStream(const ChunkRange& range) const {
    return Rng(range.chunk_seed);
  }

  /// \brief Independent stream for the dimension-sampling draws of a
  /// chunk (m < d only): keeps the lane streams purely for perturbation
  /// draws, so the entry streams stay aligned to groups of four
  /// regardless of m.
  Rng DimSamplerStream(const ChunkRange& range) const;

  /// \brief Runs `body(range, scratch)` for every chunk and reduces the
  /// scratches through the deterministic two-level tree (engine/
  /// reduce.h), bounded by the run's num_threads workers and honouring
  /// control().allow_missing_chunks (the quarantined chunk indices land
  /// in *quarantined, sorted, when non-null).
  /// `make_acc` is `() -> Result<Acc>`; `body` is `(const ChunkRange&,
  /// Acc*) -> Status` and may run concurrently across chunks (scratches
  /// are per-worker). `hooks` drive checkpoint/resume (engine/reduce.h).
  template <typename Acc, typename MakeAcc, typename Body>
  Result<Acc> ReduceResumable(MakeAcc&& make_acc, Body&& body,
                              const CheckpointHooks<Acc>& hooks,
                              std::vector<std::size_t>* quarantined) const {
    return ReduceChunksResumable<Acc>(
        num_chunks_, num_threads_, std::forward<MakeAcc>(make_acc),
        [this, &body](std::size_t c, Acc* scratch) {
          return body(Range(c), scratch);
        },
        control_, hooks, quarantined);
  }

  /// \brief Dense per-chunk driver (every dimension reported): streams
  /// the chunk's users through `plan` on the chunk's lane generator in
  /// blocks of ~kEntriesPerBlock entries and folds complete expanded
  /// rows via `agg->ConsumeDense`.
  ///
  /// `fill(user_begin, block_users, natives)` must write the native-
  /// domain inputs of users [user_begin, user_begin + block_users) into
  /// the first block_users * row_width entries of `natives`. The buffer
  /// is allocated once per chunk, initialized to `native_fill`, and
  /// handed back to `fill` un-reset across blocks — a fill callback that
  /// only touches a sparse subset of entries (e.g. one-hot encodings) can
  /// un-set the previous block's writes instead of re-initializing the
  /// whole buffer.
  template <typename Agg, typename FillBlock>
  Status PerturbDenseChunk(const mech::SamplerPlan& plan,
                           const ChunkRange& range, std::size_t row_width,
                           double native_fill, Agg* agg,
                           FillBlock&& fill) const {
    const std::size_t block_users =
        std::max<std::size_t>(1, kEntriesPerBlock / row_width);
    RngLanes lanes = LaneStreams(range);
    std::vector<double> natives(block_users * row_width, native_fill);
    std::vector<double> perturbed(block_users * row_width);
    for (std::size_t i = range.begin; i < range.end; i += block_users) {
      const std::size_t block = std::min(block_users, range.end - i);
      fill(i, block, std::span<double>(natives));
      const std::span<const double> in =
          std::span<const double>(natives).first(block * row_width);
      const std::span<double> out =
          std::span<double>(perturbed).first(block * row_width);
      mech::PerturbLanes(plan, in, &lanes, out);
      HDLDP_RETURN_NOT_OK(agg->ConsumeDense(out));
    }
    return Status::OK();
  }

  /// \brief Sampled per-chunk driver (m < num_dims): the chunk's
  /// dimension-sampler stream picks each user's m dimensions, the
  /// workload expands them into (entry index, native value) pairs, and
  /// the entries stream through `plan` on the chunk's lane generator.
  ///
  /// Layout depends on control().seed_scheme (see common/rng_lanes.h):
  ///
  ///   kV3Batched  all of the chunk's dimension draws happen up front
  ///               (Rng::SampleWithoutReplacementBatch, sorted per
  ///               user), then consecutive users' entries pack into
  ///               cross-user blocks of >= kSampledEntriesPerBlock
  ///               entries —
  ///               one PerturbLanes call and one `agg->ConsumeScattered`
  ///               per block, so lane utilization and per-call overhead
  ///               no longer die at small m.
  ///   kV2Lanes    the frozen legacy layout: per user, draw m dimensions
  ///               (Floyd draw order), expand, perturb the user's
  ///               entries as their own lane span and fold them with
  ///               `agg->ConsumeScattered`.
  ///               (kV1Scalar runs never reach the engine drivers; the
  ///               pipelines keep their own frozen v1 bodies.)
  ///
  /// `expand(user, dims, entry_indices, natives)` is called once per
  /// user with the user's `report_dims` sampled dimensions — ascending
  /// under kV3Batched, in the sampler's draw order under kV2Lanes — and
  /// must append each dimension's expanded entries to both vectors in
  /// the given dimension order (one entry for a numerical dimension,
  /// Cardinality(dim) entries for a one-hot one). Handing the workload
  /// the whole span at once lets it bulk-append instead of paying
  /// per-dimension capacity checks.
  template <typename Agg, typename ExpandUser>
  Status PerturbSampledChunk(const mech::SamplerPlan& plan,
                             const ChunkRange& range, std::size_t num_dims,
                             std::size_t report_dims, Agg* agg,
                             ExpandUser&& expand) const {
    SampledChunkScratch& s = PerWorkerSampledScratch();
    RngLanes lanes = LaneStreams(range);
    Rng dims_rng = DimSamplerStream(range);
    if (control_.seed_scheme == SeedScheme::kV3Batched) {
      s.sampled.clear();
      dims_rng.SampleWithoutReplacementBatch(num_dims, report_dims,
                                             range.num_users(), /*sorted=*/true,
                                             &s.sampler, &s.sampled);
      s.entry_indices.clear();
      s.natives.clear();
      const std::uint32_t* user_dims = s.sampled.data();
      for (std::size_t i = range.begin; i < range.end;
           ++i, user_dims += report_dims) {
        expand(i, std::span<const std::uint32_t>(user_dims, report_dims),
               &s.entry_indices, &s.natives);
        if (s.natives.size() >= kSampledEntriesPerBlock) {
          HDLDP_RETURN_NOT_OK(FlushSampledBlock(plan, &lanes, &s, agg));
        }
      }
      return FlushSampledBlock(plan, &lanes, &s, agg);
    }
    for (std::size_t i = range.begin; i < range.end; ++i) {
      s.sampled.clear();
      dims_rng.SampleWithoutReplacement(num_dims, report_dims, &s.sampled);
      s.entry_indices.clear();
      s.natives.clear();
      expand(i, std::span<const std::uint32_t>(s.sampled),
             &s.entry_indices, &s.natives);
      s.perturbed.resize(s.natives.size());
      mech::PerturbLanes(plan, s.natives, &lanes, s.perturbed);
      HDLDP_RETURN_NOT_OK(
          agg->ConsumeScattered(s.entry_indices, s.perturbed));
    }
    return Status::OK();
  }

 private:
  /// Perturbs and scatters the v3 block in flight (a no-op when empty),
  /// leaving the scratch ready for the next block.
  template <typename Agg>
  static Status FlushSampledBlock(const mech::SamplerPlan& plan,
                                  RngLanes* lanes, SampledChunkScratch* s,
                                  Agg* agg) {
    if (s->natives.empty()) return Status::OK();
    s->perturbed.resize(s->natives.size());
    mech::PerturbLanes(plan, s->natives, lanes, s->perturbed);
    const Status status = agg->ConsumeScattered(s->entry_indices, s->perturbed);
    s->entry_indices.clear();
    s->natives.clear();
    return status;
  }

  std::size_t num_users_;
  std::size_t num_chunks_;
  RunControl control_;
  std::size_t num_threads_;
  const data::ChunkSource* source_;
  data::ChunkPartials<NeumaierColumns>* truth_;
};

}  // namespace engine
}  // namespace hdldp

#endif  // HDLDP_ENGINE_CHUNKED_ESTIMATION_H_
