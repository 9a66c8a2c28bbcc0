// engine::OrderedTruthFold — a mean run's ground truth, folded from the
// rows its estimate pass already pulled.
//
// A mean run scores its estimate against the per-dimension mean of the
// users the estimate covers: one compensated sum per column over the
// surviving chunks in chunk order (data::SurvivingMean). The estimate
// pass pulls every one of those chunks on its workers anyway. Bound to
// a ChunkedEstimation, this fold takes each chunk's rows from the worker
// that pulled them, right after the pull, and adds them to one
// NeumaierColumns in chunk-index order — so every column sees users in
// SurvivingMean's order and the mean has its bits, without a second pull.
//
// Nothing is copied or pinned: a worker holding chunk c's rows waits for
// c's turn and folds them in place, so each worker still holds one
// chunk. The rules:
//
//   * turn wait — a worker waits for c's turn only while c < cursor +
//     window, where the cursor is the lowest unsettled chunk and the
//     window the shared pool's concurrency. Chunks are claimed in index
//     order and a worker holds one unsettled chunk, so with one chunk
//     per reduction group every offer lands inside the window.
//   * skip — a failed pull settles its chunk unfolded, so a quarantined
//     chunk stays out of the truth.
//   * stall — anything else stops the fold for good, and waiting workers
//     wake and drop out: a chunk outside the window (above
//     kMaxReductionGroups chunks a group holds several chunks, and later
//     groups run ahead of the cursor), a chunk offered twice, and a chunk
//     the reduction settles (CheckpointHooks::settled) at or past the
//     cursor without an offer — a resumed group's checkpointed chunks, a
//     chunk whose body never pulled, and a stopped group's remaining
//     chunks. The reduction reports every chunk exactly once, so the
//     fold needs no rule of its own about which failures stop a group.
//
// Mean() then checks that the folded prefix skipped exactly the
// quarantined chunks below the cursor (a body that failed after a good
// pull would break that; the prefix is then dropped) and finishes the
// chunks the cursor did not reach with data::SurvivingMeanFrom — the
// existing pull loop, under the run's retry policy.

#ifndef HDLDP_ENGINE_ORDERED_TRUTH_H_
#define HDLDP_ENGINE_ORDERED_TRUTH_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

#include "common/math.h"
#include "common/result.h"
#include "data/chunk_source.h"

namespace hdldp {
namespace engine {

/// \brief Chunk-ordered truth fold beside a ChunkedEstimation's pulls.
/// Offer and Settle are safe to call concurrently from the run's
/// workers; Mean runs once, after the reduction returned.
class OrderedTruthFold {
 public:
  explicit OrderedTruthFold(std::size_t num_dims);

  /// \brief Chunk `chunk` was pulled: `rows` are its rows, or the pull's
  /// failure. Waits for the chunk's turn (see the rules above), then
  /// folds the rows or skips the chunk; returns unfolded once stalled.
  void Offer(std::size_t chunk, const Result<std::span<const double>>& rows);

  /// \brief The reduction settled chunk `chunk` (its body returned, or no
  /// body will run it): stalls unless the chunk is already folded or
  /// skipped, or the fold already stalled.
  void Settle(std::size_t chunk);

  /// \brief The per-dimension mean of `source`'s users outside
  /// `quarantined` (sorted ascending): the folded prefix, then every
  /// surviving chunk from the cursor on, pulled under `retry`. Bit for
  /// bit data::SurvivingMean(source, quarantined, retry).
  Result<std::vector<double>> Mean(const data::ChunkSource& source,
                                   const std::vector<std::size_t>& quarantined,
                                   const data::RetryPolicy& retry);

 private:
  void StallLocked();

  const std::size_t window_;
  std::mutex mutex_;
  std::condition_variable turn_;
  // Chunks below the cursor are settled: folded, or skipped and listed
  // in skipped_ (ascending).
  std::size_t cursor_ = 0;
  bool stalled_ = false;
  std::vector<std::size_t> skipped_;
  NeumaierColumns sums_;
};

}  // namespace engine
}  // namespace hdldp

#endif  // HDLDP_ENGINE_ORDERED_TRUTH_H_
