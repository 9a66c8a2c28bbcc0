// Write-path syscall seam with deterministic fault injection.
//
// Every durable write the repo performs (shard part files, checkpoint
// records) funnels through a FileWriter, which forwards to the real
// write/pwrite/fsync syscalls — and, when a WriteFaultSchedule is
// installed, injects the disk failures a production collector must
// survive:
//
//   * kShortWrite   — half the requested bytes land on disk, then the
//     device reports no space. Models a write torn by a filling disk;
//     the bytes that landed are real, so callers must keep torn output
//     quarantined behind their .tmp/rename discipline.
//   * kNoSpace      — the write fails outright with no bytes written
//     (ENOSPC). ResourceExhausted.
//   * kFsyncFailure — the flush fails. After a failed fsync the page
//     cache state is unknowable (the kernel may have dropped the dirty
//     pages), so this is DataLoss, never retryable.
//
// Determinism: faults are keyed by the writer's operation counter —
// the n-th write/pwrite/fsync this writer performs — either explicitly
// (Add) or by a seeded SplitMix64 fate draw per operation
// (the data::FaultSchedule::Random pattern), so a fault pattern is
// named by a single seed and replays identically on every platform.
//
// Real-error mapping (no schedule needed): ENOSPC/EDQUOT/EFBIG from
// write() surface as ResourceExhausted, a failed fsync() as DataLoss,
// anything else as Internal.
//
// FileWriter is not internally synchronized; callers that share one
// across threads must serialize access (SnapshotFile's Save mutex).

#ifndef HDLDP_COMMON_FILE_WRITER_H_
#define HDLDP_COMMON_FILE_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/status.h"

namespace hdldp {

/// Kind of one injected write-path fault.
enum class WriteFaultKind {
  kShortWrite,    ///< Half the bytes land, then ENOSPC (ResourceExhausted).
  kNoSpace,       ///< No bytes land, ENOSPC (ResourceExhausted).
  kFsyncFailure,  ///< The flush fails (DataLoss).
};

/// \brief A replayable map from write-operation index to injected
/// fault. Value type; copy it freely. Explicit faults (Add) take
/// precedence; otherwise, when any rate is nonzero, each operation
/// draws its fate from one SplitMix64 stream keyed by (seed, op).
class WriteFaultSchedule {
 public:
  struct RandomOptions {
    double short_write_rate = 0.0;
    double no_space_rate = 0.0;
    double fsync_failure_rate = 0.0;
  };

  WriteFaultSchedule() = default;
  WriteFaultSchedule(std::uint64_t seed, const RandomOptions& options)
      : seed_(seed), options_(options) {}

  /// Injects `kind` at operation `op`; a second Add for the same op
  /// replaces the first.
  void Add(std::uint64_t op, WriteFaultKind kind) { explicit_[op] = kind; }

  /// True iff any fault can ever fire.
  bool active() const {
    return !explicit_.empty() || options_.short_write_rate > 0.0 ||
           options_.no_space_rate > 0.0 || options_.fsync_failure_rate > 0.0;
  }

  /// Fate of write/pwrite operation `op` (kShortWrite/kNoSpace only).
  std::optional<WriteFaultKind> WriteFate(std::uint64_t op) const;
  /// Fate of fsync operation `op` (kFsyncFailure only).
  std::optional<WriteFaultKind> FsyncFate(std::uint64_t op) const;

 private:
  std::unordered_map<std::uint64_t, WriteFaultKind> explicit_;
  std::uint64_t seed_ = 0;
  RandomOptions options_;
};

/// fsync()s directory `dir`, flushing its entries: a file renamed into it
/// is durable only after this, since a crash can roll back an unflushed
/// rename. DataLoss on failure, like FileWriter::Fsync. A free function,
/// not a FileWriter operation: it takes no operation index, so no
/// WriteFaultSchedule fault ever lands on it.
Status FsyncDir(const std::string& dir);

/// \brief The write-path syscall wrapper. One per durable-file writer;
/// the operation counter ties each syscall to the schedule.
class FileWriter {
 public:
  FileWriter() = default;
  explicit FileWriter(WriteFaultSchedule schedule)
      : schedule_(std::move(schedule)) {}

  /// write() until `len` bytes land, retrying EINTR. ResourceExhausted
  /// on ENOSPC/EDQUOT/EFBIG (real or injected), Internal otherwise. An
  /// injected short write leaves len/2 real bytes in the file before
  /// failing.
  Status WriteFully(int fd, const void* data, std::size_t len,
                    const std::string& path);

  /// pwrite() at `offset` until `len` bytes land. Same error mapping.
  Status PWriteFully(int fd, const void* data, std::size_t len,
                     std::size_t offset, const std::string& path);

  /// fsync(). DataLoss on failure (real or injected): after a failed
  /// flush the on-disk state of previously written bytes is unknowable.
  Status Fsync(int fd, const std::string& path);

  /// Operations performed so far (successful or failed).
  std::uint64_t ops() const { return op_; }

  const WriteFaultSchedule& schedule() const { return schedule_; }

 private:
  WriteFaultSchedule schedule_;
  std::uint64_t op_ = 0;
};

}  // namespace hdldp

#endif  // HDLDP_COMMON_FILE_WRITER_H_
