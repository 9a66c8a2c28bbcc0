// Deterministic two-level chunk reduction: the shared merge core of every
// chunked estimation pipeline (mean, frequency, and whatever workload
// comes next).
//
// A population is decomposed into fixed-size user chunks (see
// chunked_estimation.h for the geometry); each chunk folds its reports
// into a scratch accumulator and the scratches merge through a two-level
// tree whose shape is a pure function of the chunk count — never of the
// worker count. That is what makes estimates identical for every
// max_concurrency value while capping the live reduction footprint at
// kMaxReductionGroups accumulators no matter how many chunks a
// million-user run splits into.

#ifndef HDLDP_ENGINE_REDUCE_H_
#define HDLDP_ENGINE_REDUCE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/run_control.h"

namespace hdldp {
namespace engine {

/// \brief Resumable state of one reduction group, as persisted by the
/// checkpoint codec (protocol/snapshot): the group accumulator after
/// `chunks_done` chunks plus the chunks quarantined so far.
template <typename Acc>
struct GroupCheckpoint {
  /// Chunks of this group already folded into `acc`, counted from the
  /// group's first chunk (groups run their chunks strictly in order, so
  /// one count pins the exact resume point).
  std::size_t chunks_done = 0;
  /// Absolute indices of this group's quarantined chunks: distinct,
  /// ascending and among the `chunks_done` completed ones (a loaded
  /// state that breaks this is refused as DataLoss).
  std::vector<std::size_t> quarantined;
  Acc acc;
};

/// \brief Callbacks of a resumable reduction; any may be empty. `load`
/// runs once per group before its first chunk (an empty optional starts
/// the group fresh); `save` runs after every completed or quarantined
/// chunk, possibly concurrently across groups — the sink must serialize
/// internally. Because groups merge chunks in chunk order and the global
/// merge happens only at the end in group order, restoring every group's
/// (acc, chunks_done) and continuing yields the exact accumulator
/// sequence of an uninterrupted run — resumed estimates are
/// bit-identical.
template <typename Acc>
struct CheckpointHooks {
  std::function<Result<std::optional<GroupCheckpoint<Acc>>>(
      std::size_t group)>
      load;
  std::function<Status(std::size_t group, std::size_t chunks_done,
                       const std::vector<std::size_t>& quarantined,
                       const Acc& acc)>
      save;
};

/// Upper bound on simultaneously-live partial accumulators in
/// ReduceChunks (beyond the per-worker scratch).
inline constexpr std::size_t kMaxReductionGroups = 512;

/// \brief Shape of the two-level reduction: chunks are assigned to
/// `num_groups` groups of `group_size` consecutive chunks.
struct ReductionGeometry {
  std::size_t group_size = 1;
  std::size_t num_groups = 0;
};

/// \brief Group geometry for `num_chunks` chunks — a pure function of the
/// chunk count (determinism), with num_groups <= kMaxReductionGroups.
/// For num_chunks <= kMaxReductionGroups every group holds one chunk, so
/// the merge sequence degenerates to the flat chunk-order merge of the
/// PR 2 pipelines, bit for bit.
inline ReductionGeometry GroupGeometry(std::size_t num_chunks) {
  ReductionGeometry geometry;
  if (num_chunks == 0) return geometry;
  geometry.group_size =
      (num_chunks + kMaxReductionGroups - 1) / kMaxReductionGroups;
  geometry.num_groups =
      (num_chunks + geometry.group_size - 1) / geometry.group_size;
  return geometry;
}

/// \brief Deterministic two-level parallel reduction over `num_chunks`
/// chunk simulations, generic over the accumulator type.
///
/// `Acc` must provide `void Reset()` and `Status Merge(const Acc&)`.
/// `make_acc` is `() -> Result<Acc>` and may be invoked concurrently from
/// worker threads (one global, one per group, one scratch per in-flight
/// group task). `body` is `(std::size_t chunk, Acc*) -> Status` and must
/// fold chunk c's reports into the scratch it is given; it runs once per
/// chunk, chunks of a group strictly in chunk order.
///
/// Each group runs as one ParallelFor task on the shared pool that
/// simulates its chunks in chunk order into a reused scratch and merges
/// each scratch into the group accumulator; the group accumulators then
/// merge in group order. Estimates are therefore identical for every
/// `max_concurrency` (0 = one per hardware thread). The first failing
/// chunk's Status is returned (by lowest group; later chunks of a failed
/// group are skipped).
///
/// `control` adds fault tolerance: under `control.allow_missing_chunks`
/// a chunk whose body fails with kUnavailable / kDataLoss is quarantined
/// — skipped, collected into *quarantined_out sorted ascending — instead
/// of failing the run. The reduction never retries a body: retrying is a
/// property of the pull (data::PullChunk under `control.retry`, which
/// ChunkedEstimation::ChunkRows applies), so a body sees a transient
/// fault only once its pull has exhausted the retry ladder. `hooks` adds
/// checkpoint/resume at group granularity (see CheckpointHooks); the
/// caller binds load and save to control.checkpoint_path.
template <typename Acc, typename MakeAcc, typename Body>
Result<Acc> ReduceChunksResumable(std::size_t num_chunks,
                                  std::size_t max_concurrency,
                                  MakeAcc&& make_acc, Body&& body,
                                  const RunControl& control,
                                  const CheckpointHooks<Acc>& hooks,
                                  std::vector<std::size_t>* quarantined_out) {
  HDLDP_ASSIGN_OR_RETURN(Acc global, make_acc());
  if (quarantined_out != nullptr) quarantined_out->clear();
  if (num_chunks == 0) return global;
  const ReductionGeometry geometry = GroupGeometry(num_chunks);
  std::vector<Acc> group_locals;
  std::vector<Status> statuses(geometry.num_groups);
  std::vector<std::vector<std::size_t>> group_quarantined(geometry.num_groups);
  group_locals.reserve(geometry.num_groups);
  for (std::size_t g = 0; g < geometry.num_groups; ++g) {
    HDLDP_ASSIGN_OR_RETURN(Acc local, make_acc());
    group_locals.push_back(std::move(local));
  }
  ThreadPool::Shared().ParallelFor(
      0, geometry.num_groups,
      [&](std::size_t g) {
        const std::size_t begin = g * geometry.group_size;
        const std::size_t end =
            std::min(num_chunks, begin + geometry.group_size);
        const auto run_group = [&]() -> Status {
          std::size_t done = 0;
          if (hooks.load) {
            HDLDP_ASSIGN_OR_RETURN(std::optional<GroupCheckpoint<Acc>> loaded,
                                   hooks.load(g));
            if (loaded.has_value()) {
              // The state must fit the group: no more chunks done than it
              // holds, and the quarantined chunks distinct and ascending
              // among those done (survivor counts and first-survivor
              // scans rely on it).
              const std::vector<std::size_t>& listed = loaded->quarantined;
              if (loaded->chunks_done > end - begin ||
                  (!listed.empty() &&
                   (listed.front() < begin ||
                    listed.back() >= begin + loaded->chunks_done)) ||
                  std::adjacent_find(listed.begin(), listed.end(),
                                     std::greater_equal<>()) != listed.end()) {
                return Status::DataLoss(
                    "checkpoint group state does not fit its group");
              }
              group_locals[g] = std::move(loaded->acc);
              group_quarantined[g] = std::move(loaded->quarantined);
              done = loaded->chunks_done;
            }
          }
          // One scratch per group task, reset between chunks: the live
          // footprint is num_groups + in-flight scratches, not num_chunks.
          HDLDP_ASSIGN_OR_RETURN(Acc scratch, make_acc());
          for (std::size_t c = begin + done; c < end; ++c) {
            scratch.Reset();
            const Status status = body(c, &scratch);
            if (!status.ok()) {
              const bool quarantinable =
                  status.code() == StatusCode::kUnavailable ||
                  status.code() == StatusCode::kDataLoss;
              if (!(control.allow_missing_chunks && quarantinable)) {
                return status;
              }
              group_quarantined[g].push_back(c);
            } else {
              HDLDP_RETURN_NOT_OK(group_locals[g].Merge(scratch));
            }
            if (hooks.save) {
              HDLDP_RETURN_NOT_OK(hooks.save(g, c - begin + 1,
                                             group_quarantined[g],
                                             group_locals[g]));
            }
          }
          return Status::OK();
        };
        statuses[g] = run_group();
      },
      max_concurrency);
  for (std::size_t g = 0; g < geometry.num_groups; ++g) {
    HDLDP_RETURN_NOT_OK(statuses[g]);
    HDLDP_RETURN_NOT_OK(global.Merge(group_locals[g]));
    if (quarantined_out != nullptr) {
      // Groups cover disjoint ascending chunk ranges, so appending in
      // group order keeps the list sorted.
      quarantined_out->insert(quarantined_out->end(),
                              group_quarantined[g].begin(),
                              group_quarantined[g].end());
    }
  }
  return global;
}

/// \brief The plain reduction: no quarantine, no checkpointing. Kept as
/// the default entry point so workloads that need none of the
/// fault-tolerance machinery pay none of it.
template <typename Acc, typename MakeAcc, typename Body>
Result<Acc> ReduceChunks(std::size_t num_chunks, std::size_t max_concurrency,
                         MakeAcc&& make_acc, Body&& body) {
  return ReduceChunksResumable<Acc>(
      num_chunks, max_concurrency, std::forward<MakeAcc>(make_acc),
      std::forward<Body>(body), RunControl{}, CheckpointHooks<Acc>{},
      nullptr);
}

}  // namespace engine
}  // namespace hdldp

#endif  // HDLDP_ENGINE_REDUCE_H_
