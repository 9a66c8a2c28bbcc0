// Protocol-level plumbing of engine::RunControl: the one validator of
// the run-control carve-outs, and the one checkpointed MeanAggregator
// reduction behind the mean, frequency and variance pipelines — which
// also produces each run's engine::RunOutcome and is the one place a run
// with no surviving user is refused.

#ifndef HDLDP_PROTOCOL_RUN_CONTROL_H_
#define HDLDP_PROTOCOL_RUN_CONTROL_H_

#include <cstddef>
#include <functional>

#include "common/result.h"
#include "engine/chunked_estimation.h"
#include "engine/run_control.h"
#include "mech/mechanism.h"
#include "protocol/aggregator.h"
#include "protocol/snapshot.h"
#include "protocol/wire.h"

namespace hdldp {
namespace protocol {

/// \brief Owns every run-control carve-out. InvalidArgument when
/// `encoding` under `control` is not a valid `workload` run:
///
///   * each statistic accepts only its own encodings (CheckEncoding);
///   * numeric frequency under kV1Scalar cannot checkpoint or quarantine
///     (allow_missing_chunks): its serial loop predates the reduction
///     tree. Its pulls retry like every run's (data::PullChunk). The
///     frequency-oracle encodings (oue, olh) never take that loop.
///
/// Every pipeline calls this first, so one configuration fails the same
/// way whichever statistic it names.
Status ValidateRunControl(const engine::RunControl& control,
                          ReportEncoding encoding, Workload workload);

/// Outcome of ReduceMeanChunks.
struct MeanReduction {
  MeanAggregator aggregator;
  engine::RunOutcome outcome;
};

/// Folds one chunk's reports into the scratch aggregator it is given.
using MeanChunkBody =
    std::function<Status(const engine::ChunkRange&, MeanAggregator*)>;

/// \brief Reduces every chunk of `core` through `body` into
/// MeanAggregator(width, map) scratches, checkpointed when
/// core.control().checkpoint_path is set: the checkpoint is opened under
/// `digest` (everything the estimate depends on; a checkpoint of any
/// other run is refused), each group's exact aggregator state is saved
/// as its chunks complete, a resumed run continues bit-identically, and
/// the spent checkpoint is removed once the reduction completes. A run
/// that quarantined every user (or covers none) is then refused with
/// FailedPrecondition: no estimate or deviation model exists at r = 0.
Result<MeanReduction> ReduceMeanChunks(const engine::ChunkedEstimation& core,
                                       const RunDigest& digest,
                                       std::size_t width,
                                       const mech::DomainMap& map,
                                       const MeanChunkBody& body);

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_RUN_CONTROL_H_
