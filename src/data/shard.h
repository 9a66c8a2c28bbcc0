// On-disk shard format + mmap-windowed ChunkSource reader.
//
// A shard directory holds a population as one or more files named
// part-00000.hds, part-00001.hds, ... Each file is:
//
//   [0, 4096)      header block (fixed 4096 bytes, zero padded; fields
//                  little-endian through common/bytes.h):
//       offset 0   magic   "HDLSHARD"           (8 bytes)
//       offset 8   u32     format version (currently 2)
//       offset 12  u32     flags (reserved, must be 0)
//       offset 16  u64     num_dims
//       offset 24  u64     users_per_chunk (must equal kUsersPerChunk)
//       offset 32  u64     num_users stored in THIS file
//       offset 40  u64     first_user — global index of this file's row 0
//   [4096, ...)    num_users x num_dims row-major little-endian doubles
//   [..., end)     v2 only: CRC trailer — one little-endian u32 CRC32C
//                  per chunk stored in this file, in chunk order
//
// so a v2 file's size must be exactly
//   4096 + num_users * num_dims * 8 + 4 * ceil(num_users / users_per_chunk)
// and a v1 file's exactly 4096 + num_users * num_dims * 8 — any other
// size is reported as truncation/corruption, never read past. The
// trailer lives at the END of the file (not between header and payload)
// so every chunk's byte offset stays page-aligned on 4 KiB pages and
// the reader's single-mmap-window scheme is unchanged.
//
// Integrity: the writer computes each chunk's CRC32C as the bytes are
// appended; the reader verifies the stored CRC on every Chunk() pull
// and reports a mismatch as DataLoss naming the chunk. Version-1 files
// (no trailer) stay readable; ShardFileSource::checksummed() reports
// whether every part carries checksums.
//
// Crash consistency: each part is written as part-XXXXX.hds.tmp,
// fsync'd, then atomically renamed to its final name, and the directory
// is fsync'd — so a part file either exists complete-and-checksummed
// or not at all. A stray .hds.tmp is evidence of an interrupted write:
// ShardFileSource::Open rejects the directory (DataLoss), and
// ShardWriter::Create treats it as a failed run, wipes the partial
// output, and starts over.
//
// Every file except the directory's last must hold a whole number of
// chunks, so a chunk never spans files and the reader can serve any
// chunk with a single bounded mmap window.
//
// The format stores raw values only — no seeds, no mechanism state —
// so estimates over a shard directory are bit-identical to estimates
// over the same values resident in memory (the determinism contract in
// data/chunk_source.h).

#ifndef HDLDP_DATA_SHARD_H_
#define HDLDP_DATA_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/file_writer.h"
#include "common/result.h"
#include "data/chunk_source.h"

namespace hdldp {
namespace data {

/// Current shard file format version. Version 2 adds the per-chunk
/// CRC32C trailer; version 1 files remain readable (unverified).
inline constexpr std::uint32_t kShardFormatVersion = 2;

/// Options for ShardWriter.
struct ShardWriterOptions {
  /// Chunks per part file before rolling to the next one. The default
  /// (1024 chunks = 4M users) keeps part files near 512 MB at d = 16.
  std::size_t chunks_per_file = 1024;
  /// Deterministic write-path fault injection (common/file_writer.h).
  /// Default-constructed = no faults. A failed write/fsync surfaces as
  /// ResourceExhausted/DataLoss and never renames the torn .tmp into
  /// place, so the directory's previous state stays intact and the next
  /// Create() recovers it.
  WriteFaultSchedule write_faults;
};

/// \brief Streaming writer of a shard directory. Append rows in user
/// order (any row granularity); the writer rolls part files at chunk
/// boundaries, accumulates per-chunk CRC32Cs as bytes stream through,
/// and seals each part crash-consistently (.tmp + fsync + rename +
/// directory fsync) on close. Not thread-safe; one writer per
/// directory.
class ShardWriter {
 public:
  /// Creates the directory if needed. A directory holding only the
  /// debris of an interrupted write (stray .hds.tmp files) is wiped and
  /// reused; a directory with completed part files and no .tmp evidence
  /// is refused (FailedPrecondition) to avoid clobbering good data.
  static Result<ShardWriter> Create(const std::string& dir,
                                    std::size_t num_dims,
                                    const ShardWriterOptions& options = {});

  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;
  ShardWriter(ShardWriter&& other) noexcept;
  ShardWriter& operator=(ShardWriter&& other) noexcept;
  ~ShardWriter();

  /// \brief Appends whole rows: values.size() must be a multiple of
  /// num_dims. Rows may cross part-file boundaries; the writer splits
  /// them at chunk granularity.
  Status Append(std::span<const double> values);

  /// \brief Flushes, seals and renames the final part file. Required
  /// before the directory is readable; appending or finishing again
  /// afterwards is a FailedPrecondition. At least one row must have
  /// been appended.
  Status Finish();

  /// Rows appended so far.
  std::size_t rows_written() const { return rows_written_; }

 private:
  ShardWriter(std::string dir, std::size_t num_dims,
              const ShardWriterOptions& options);

  Status OpenNextFile();
  Status CloseCurrentFile();

  std::string dir_;
  std::size_t num_dims_ = 0;
  ShardWriterOptions options_;
  FileWriter writer_;
  int fd_ = -1;
  std::size_t file_index_ = 0;
  std::size_t rows_in_file_ = 0;
  std::size_t rows_written_ = 0;
  bool finished_ = false;
  // Per-chunk CRC state for the part file being written: CRCs of the
  // chunks already completed in this file, the running CRC of the
  // partial chunk, and how many of its rows have streamed through.
  std::vector<std::uint32_t> chunk_crcs_;
  std::uint32_t chunk_crc_ = 0;
  std::size_t rows_in_chunk_ = 0;
};

/// \brief Streams every chunk of `source` into a new shard directory.
Result<std::size_t> WriteShards(const ChunkSource& source,
                                const std::string& dir,
                                const ShardWriterOptions& options = {});

/// \brief mmap-windowed reader of a shard directory.
///
/// Open() validates every part header (magic, version, geometry,
/// contiguous first_user), every file size, and loads each part's CRC
/// trailer up front; Chunk() verifies the pulled payload against its
/// stored CRC32C (v2 parts) so bit rot and torn writes surface as
/// DataLoss at the failing chunk instead of silently skewing
/// estimates. Each pull maps exactly one chunk-sized window into the
/// caller's ChunkBuffer (unmapping the previous window), keeping the
/// per-reader address-space footprint at one chunk regardless of
/// population size — this is what lets the out-of-core CI job run under
/// an address-space ulimit far below n x d x 8.
class ShardFileSource final : public ChunkSource {
 public:
  static Result<ShardFileSource> Open(const std::string& dir);

  ShardFileSource(const ShardFileSource&) = delete;
  ShardFileSource& operator=(const ShardFileSource&) = delete;
  ShardFileSource(ShardFileSource&& other) noexcept;
  ShardFileSource& operator=(ShardFileSource&& other) noexcept;
  ~ShardFileSource() override;

  std::size_t num_users() const override { return num_users_; }
  std::size_t num_dims() const override { return num_dims_; }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;

  /// True iff every part file carries per-chunk checksums (format v2),
  /// i.e. every Chunk() pull is integrity-verified. False when at least
  /// one part is a legacy v1 file, for which verification is
  /// unavailable and reads are trusted as-is.
  bool checksummed() const { return checksummed_; }

 private:
  struct PartFile {
    std::string path;
    int fd = -1;
    std::size_t first_user = 0;
    std::size_t num_users = 0;
    // Per-chunk CRC32Cs from the trailer; empty for v1 parts.
    std::vector<std::uint32_t> chunk_crcs;
  };

  ShardFileSource() = default;
  void CloseAll();

  std::vector<PartFile> parts_;
  std::size_t num_users_ = 0;
  std::size_t num_dims_ = 0;
  bool checksummed_ = false;
};

}  // namespace data
}  // namespace hdldp

#endif  // HDLDP_DATA_SHARD_H_
