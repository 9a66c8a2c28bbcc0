// protocol::SnapshotFile — the versioned checkpoint codec behind
// resumable estimation runs.
//
// A checkpoint file records the resumable state of one reduction run
// (engine/reduce.h): a manifest digest identifying the run
// configuration, followed by an append-only log of per-group records —
// each the group's accumulator state after its k-th chunk, its
// quarantined chunk list, and a CRC32C frame. Layout:
//
//   [0, 8)    magic "HDLSNAP1"
//   [8, 12)   u32 format version (currently 1)
//   [12, 16)  u32 digest length
//   ...       digest bytes (opaque, built by the pipeline)
//   ...       u32 CRC32C of everything above
//   then records, each:
//       u32 payload length
//       u32 CRC32C of the payload
//       payload:  u64 group | u64 chunks_done | u64 quarantine count |
//                 u64[] quarantined chunks | u64 state length |
//                 accumulator state bytes
//
// Crash tolerance: records append atomically-enough — a run killed
// mid-append leaves a torn tail whose CRC frame fails, and Open()
// simply stops parsing there, keeping every record before it. The last
// valid record per group wins. On every resume the file is compacted
// (latest record per group, rewritten via .tmp + rename) so a torn
// tail can never mask records appended after the resume.
//
// The manifest digest is compared bytewise on Open(): resuming with a
// different mechanism, epsilon, seed, seed scheme, or population is
// refused (InvalidArgument) rather than silently mixing two runs'
// states. Thread counts are deliberately NOT part of the digest — the
// reduction is thread-count-invariant, so a run checkpointed at 8
// threads resumes bit-identically at 1.

#ifndef HDLDP_PROTOCOL_SNAPSHOT_H_
#define HDLDP_PROTOCOL_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/file_writer.h"
#include "common/result.h"

namespace hdldp {
namespace protocol {

/// Checkpoint file format version.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// \brief Builder of a run's manifest digest: a canonical byte string
/// of the configuration fields that must match for a checkpoint to be
/// resumable. Append fields in a fixed order; the digest is compared
/// bytewise.
struct RunDigest {
  std::vector<unsigned char> bytes;

  void AddU64(std::uint64_t v);
  /// The exact bit pattern — resuming across an epsilon that differs in
  /// the last ulp is still refused.
  void AddF64(double v);
  /// Length-prefixed, so adjacent strings can never alias.
  void AddString(std::string_view s);
};

/// \brief One checkpoint file: per-group resumable state keyed by a
/// run-configuration digest. Thread-safe Save (internal mutex), as
/// required by engine::CheckpointHooks. Movable, not copyable.
class SnapshotFile {
 public:
  /// Last saved state of one reduction group.
  struct GroupState {
    std::size_t chunks_done = 0;
    std::vector<std::size_t> quarantined;
    std::vector<unsigned char> acc_state;
  };

  /// \brief Opens or creates the checkpoint at `path` for the run
  /// identified by `digest`.
  ///
  /// Missing file: created with header + digest; no prior state. An
  /// existing file: header and digest are validated (a digest mismatch
  /// is InvalidArgument — the checkpoint belongs to a different run; a
  /// corrupt header is DataLoss), records load tolerantly (parsing
  /// stops at the first torn/corrupt frame), and the file is compacted
  /// before appends resume. A file the system cannot open, read, create
  /// or rename into place (say, under a missing directory) is DataLoss,
  /// like a failed write or fsync: storage failed, not the program.
  ///
  /// `write_faults` (common/file_writer.h) injects deterministic write
  /// failures into every durable write this file performs. A failed
  /// Save rolls the file back to its pre-append length, so the previous
  /// checkpoint state survives bit-identically and remains appendable.
  static Result<SnapshotFile> Open(const std::string& path,
                                   std::span<const unsigned char> digest,
                                   WriteFaultSchedule write_faults = {});

  SnapshotFile(const SnapshotFile&) = delete;
  SnapshotFile& operator=(const SnapshotFile&) = delete;
  SnapshotFile(SnapshotFile&& other) noexcept;
  SnapshotFile& operator=(SnapshotFile&& other) noexcept;
  ~SnapshotFile();

  /// True iff the file held prior resumable state when opened.
  bool resumed() const { return !groups_.empty(); }

  /// Prior state of `group`, if any was loaded.
  std::optional<GroupState> Load(std::size_t group) const;

  /// \brief Appends one group record. Callable concurrently from the
  /// reduction's group tasks; records serialize through the internal
  /// mutex and each is written with one write() call.
  Status Save(std::size_t group, std::size_t chunks_done,
              const std::vector<std::size_t>& quarantined,
              std::span<const unsigned char> acc_state);

  /// Flushes and closes the descriptor (idempotent; the destructor
  /// closes without flushing).
  Status Close();

  /// \brief Deletes a checkpoint file, tolerating its absence — called
  /// when a run completes and its checkpoint is spent.
  static Status Remove(const std::string& path);

 private:
  SnapshotFile() = default;

  std::string path_;
  int fd_ = -1;
  FileWriter writer_;
  std::unordered_map<std::size_t, GroupState> groups_;
  std::unique_ptr<std::mutex> mu_;
};

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_SNAPSHOT_H_
