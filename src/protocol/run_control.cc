#include "protocol/run_control.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hdldp {
namespace protocol {

Status ValidateRunControl(const engine::RunControl& control,
                          ReportEncoding encoding, Workload workload) {
  HDLDP_RETURN_NOT_OK(CheckEncoding(workload, encoding));
  const bool oracle =
      encoding == ReportEncoding::kOue || encoding == ReportEncoding::kOlh;
  // The kV1Scalar numeric frequency body pulls chunks in one serial loop
  // with no quarantine or checkpoint (its pulls retry like any run's);
  // the oracle encodings never take it.
  const bool serial = workload == Workload::kFrequency && !oracle &&
                      control.seed_scheme == SeedScheme::kV1Scalar;
  if (serial &&
      (control.allow_missing_chunks || !control.checkpoint_path.empty())) {
    return Status::InvalidArgument(
        "the kV1Scalar frequency loop predates the reduction tree: it "
        "neither quarantines (--allow-missing-chunks) nor checkpoints "
        "(--checkpoint); use kV2Lanes or kV3Batched");
  }
  return Status::OK();
}

Result<MeanReduction> ReduceMeanChunks(const engine::ChunkedEstimation& core,
                                       const RunDigest& digest,
                                       std::size_t width,
                                       const mech::DomainMap& map,
                                       const MeanChunkBody& body) {
  // Translates between the codec's opaque group records and the
  // aggregator's exact state (MeanAggregator::SerializeState).
  const std::string& path = core.control().checkpoint_path;
  std::optional<SnapshotFile> snapshot;
  engine::CheckpointHooks<MeanAggregator> hooks;
  if (!path.empty()) {
    HDLDP_ASSIGN_OR_RETURN(SnapshotFile file,
                           SnapshotFile::Open(path, digest.bytes));
    snapshot.emplace(std::move(file));
    hooks.load = [&snapshot, width, map](std::size_t group)
        -> Result<std::optional<engine::GroupCheckpoint<MeanAggregator>>> {
      std::optional<SnapshotFile::GroupState> state = snapshot->Load(group);
      if (!state.has_value()) {
        return std::optional<engine::GroupCheckpoint<MeanAggregator>>();
      }
      HDLDP_ASSIGN_OR_RETURN(MeanAggregator acc,
                             MeanAggregator::Create(width, map));
      HDLDP_RETURN_NOT_OK(acc.RestoreState(state->acc_state));
      return std::optional<engine::GroupCheckpoint<MeanAggregator>>(
          engine::GroupCheckpoint<MeanAggregator>{
              state->chunks_done, std::move(state->quarantined),
              std::move(acc)});
    };
    hooks.save = [&snapshot](std::size_t group, std::size_t chunks_done,
                             const std::vector<std::size_t>& quarantined,
                             const MeanAggregator& acc) -> Status {
      std::vector<unsigned char> bytes;
      acc.SerializeState(&bytes);
      return snapshot->Save(group, chunks_done, quarantined, bytes);
    };
  }
  engine::RunOutcome outcome;
  outcome.resumed_from_checkpoint =
      snapshot.has_value() && snapshot->resumed();
  HDLDP_ASSIGN_OR_RETURN(
      MeanAggregator aggregator,
      core.ReduceResumable<MeanAggregator>(
          [&] { return MeanAggregator::Create(width, map); }, body, hooks,
          &outcome.quarantined_chunks));
  // The run completed; its checkpoint is spent.
  if (snapshot.has_value()) {
    HDLDP_RETURN_NOT_OK(snapshot->Close());
    HDLDP_RETURN_NOT_OK(SnapshotFile::Remove(path));
  }
  outcome.surviving_users = core.num_users();
  for (const std::size_t c : outcome.quarantined_chunks) {
    outcome.surviving_users -= core.Range(c).num_users();
  }
  if (outcome.surviving_users == 0) {
    return Status::FailedPrecondition(
        "no surviving users to estimate: every chunk was quarantined");
  }
  return MeanReduction{std::move(aggregator), std::move(outcome)};
}

}  // namespace protocol
}  // namespace hdldp
