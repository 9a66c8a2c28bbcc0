// data::ChunkSource — the streaming data-source abstraction that feeds
// the estimation engine chunk-by-chunk.
//
// The engine's unit of work (and of determinism) is a fixed block of
// kUsersPerChunk users; a ChunkSource delivers exactly those blocks by
// chunk index, so a population never has to exist as one resident
// n x d allocation. Three families of sources implement the interface:
//
//   * ResidentChunkSource  (this header)  — zero-copy spans into an
//     in-memory data::Dataset; the adapter that keeps every existing
//     Dataset-based entry point working unchanged.
//   * ShardFileSource      (data/shard.h) — mmap-windowed reader of the
//     on-disk shard format, for populations larger than RAM.
//   * GeneratorChunkSource (data/generator_source.h) — synthesizes each
//     chunk on demand from (spec, seed, chunk), so synthetic benches can
//     run n = 10^8 without a 400 GB resident set.
//
// Thread-safety contract: Chunk() must be safe to call concurrently from
// many worker threads, provided each caller passes its own ChunkBuffer.
// The returned span is valid until the next Chunk() call with the same
// buffer (or the buffer's destruction) — exactly the lifetime of one
// engine chunk body. Sources are logically const while being read.
//
// Determinism contract: chunk identity, not storage, is the unit of
// determinism. For the same logical values, estimates are bit-identical
// whether the rows arrive resident, from disk shards, or from a
// streaming generator — the engine derives all random streams from
// (seed, chunk) and never from how a chunk was delivered.

#ifndef HDLDP_DATA_CHUNK_SOURCE_H_
#define HDLDP_DATA_CHUNK_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/math.h"
#include "common/result.h"
#include "data/dataset.h"

namespace hdldp {
namespace data {

/// Users per chunk — the engine's scheduling AND determinism unit.
/// engine::kUsersPerChunk aliases this constant; the shard file format
/// records it in every header, so on-disk data can never silently
/// disagree with the engine geometry.
inline constexpr std::size_t kUsersPerChunk = 4096;

/// \brief Per-worker scratch a ChunkSource may fill or map into when it
/// cannot return a zero-copy view. One instance per concurrent reader;
/// reusing it across pulls is what keeps streaming reads allocation- and
/// mapping-bounded. Movable, not copyable (it may own an mmap window).
class ChunkBuffer {
 public:
  ChunkBuffer() = default;
  ~ChunkBuffer();
  ChunkBuffer(const ChunkBuffer&) = delete;
  ChunkBuffer& operator=(const ChunkBuffer&) = delete;
  ChunkBuffer(ChunkBuffer&& other) noexcept;
  ChunkBuffer& operator=(ChunkBuffer&& other) noexcept;

  /// Fill storage for copying/synthesizing sources.
  std::vector<double>& storage() { return storage_; }

  /// \brief Adopts a new mapped window (munmap'ing any previous one);
  /// pass nullptr/0 to just release. Used by mmap-backed sources so the
  /// live mapped footprint per reader is one chunk window, never a whole
  /// shard file.
  void AdoptWindow(void* addr, std::size_t len);

  /// \brief Scratch for a wrapped source's own pull, so adapter sources
  /// (slices, transforms) can pull from their base without clobbering
  /// the buffer they are filling. Created lazily.
  ChunkBuffer* nested();

 private:
  std::vector<double> storage_;
  void* window_addr_ = nullptr;
  std::size_t window_len_ = 0;
  std::unique_ptr<ChunkBuffer> nested_;
};

/// \brief Interface of a chunked row-block data source: n users x d
/// dimensions delivered as row-major blocks of kUsersPerChunk users.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  virtual std::size_t num_users() const = 0;
  virtual std::size_t num_dims() const = 0;

  /// Number of chunks: ceil(num_users / kUsersPerChunk).
  std::size_t num_chunks() const {
    return (num_users() + kUsersPerChunk - 1) / kUsersPerChunk;
  }
  /// First user of chunk c.
  std::size_t ChunkBegin(std::size_t chunk) const {
    return chunk * kUsersPerChunk;
  }
  /// Users in chunk c (kUsersPerChunk except possibly the last chunk).
  std::size_t ChunkUsers(std::size_t chunk) const {
    const std::size_t begin = ChunkBegin(chunk);
    const std::size_t n = num_users();
    return begin >= n ? 0 : std::min(kUsersPerChunk, n - begin);
  }
  /// Users outside the `quarantined` chunks (distinct chunk indices).
  std::size_t SurvivingUsers(
      const std::vector<std::size_t>& quarantined) const {
    std::size_t n = num_users();
    for (const std::size_t c : quarantined) n -= ChunkUsers(c);
    return n;
  }

  /// \brief Rows of chunk `chunk` — ChunkUsers(chunk) * num_dims()
  /// doubles, row-major. Thread-safe for concurrent pulls with distinct
  /// buffers; the span stays valid until the same buffer's next use.
  virtual Result<std::span<const double>> Chunk(std::size_t chunk,
                                                ChunkBuffer* buffer) const = 0;

  /// \brief Per-dimension mean (the paper's theta-bar): by default
  /// SurvivingMean with nothing quarantined, pulled without retry — each
  /// chunk's compensated column sums, merged in chunk order, the same
  /// bits as Dataset::TrueMean over the same rows. A mean run calls it
  /// only on a source that OwnsTrueMean(); over any other source the
  /// estimate pass's workers leave each chunk's sums behind as they pull
  /// it (ChunkPartials) and the run merges those.
  virtual Result<std::vector<double>> TrueMean() const;

  /// \brief True when TrueMean() answers from the source's own record
  /// rather than from the rows Chunk() serves: the resident adapter's
  /// memoized Dataset pass, or the fault injector's unfaulted base. A
  /// mean run then scores against TrueMean() and keeps no chunk sums
  /// beside its estimate pass. A decorator that does not override this
  /// is scored from the rows it serves, whatever its TrueMean() does.
  virtual bool OwnsTrueMean() const { return false; }
};

/// \brief Zero-copy adapter over a resident Dataset (non-owning; the
/// dataset must outlive the source and stay unmutated while it is read).
class ResidentChunkSource final : public ChunkSource {
 public:
  explicit ResidentChunkSource(const Dataset* dataset) : dataset_(dataset) {}

  std::size_t num_users() const override { return dataset_->num_users(); }
  std::size_t num_dims() const override { return dataset_->num_dims(); }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;
  /// Delegates to the dataset's memoized pass (same bits as streaming).
  Result<std::vector<double>> TrueMean() const override {
    return dataset_->TrueMean();
  }
  bool OwnsTrueMean() const override { return true; }

 private:
  const Dataset* dataset_;
};

/// \brief A contiguous user range [first_user, first_user + num_users) of
/// a base source, re-chunked from user 0 (non-owning). Slice chunks that
/// happen to align with base chunks forward the base span zero-copy;
/// unaligned ones gather from the (at most two) overlapping base chunks.
class SlicedChunkSource final : public ChunkSource {
 public:
  SlicedChunkSource(const ChunkSource* base, std::size_t first_user,
                    std::size_t num_users)
      : base_(base), first_user_(first_user), num_users_(num_users) {}

  std::size_t num_users() const override { return num_users_; }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;

 private:
  const ChunkSource* base_;
  std::size_t first_user_;
  std::size_t num_users_;
};

/// \brief Applies a pure per-value transform to a base source's rows
/// (non-owning). The transform must be deterministic — it becomes part
/// of the logical data, so the usual bit-identity contracts apply.
class TransformedChunkSource final : public ChunkSource {
 public:
  TransformedChunkSource(const ChunkSource* base,
                         std::function<double(double)> transform)
      : base_(base), transform_(std::move(transform)) {}

  std::size_t num_users() const override { return base_->num_users(); }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;

 private:
  const ChunkSource* base_;
  std::function<double(double)> transform_;
};

/// \brief Retry behaviour for transient chunk faults.
///
/// A chunk pull that fails with StatusCode::kUnavailable — an I/O
/// hiccup, an injected transient fault — is re-pulled up to max_attempts
/// total attempts with exponential backoff (PullChunk). Retries are
/// invisible to estimates: a pull touches no random stream, so a run with
/// recovered transient faults is bit-identical to a fault-free run. Any
/// other error code fails (or, in the engine, quarantines) immediately.
struct RetryPolicy {
  /// Total attempts per chunk pull; 1 means no retry.
  int max_attempts = 1;
  /// Backoff before retry k (1-based count of failures so far):
  /// initial_backoff_ms << (k - 1) milliseconds, saturating at 2^63 - 1
  /// (the largest std::chrono::milliseconds count) instead of wrapping,
  /// so the ladder never shrinks. 0 retries immediately.
  std::uint64_t initial_backoff_ms = 0;
  /// Overall wall-clock retry deadline per pull in milliseconds; 0 means
  /// unlimited. The deadline arms at the pull's first failure; once that
  /// much time has elapsed no further retries are scheduled (the pull
  /// fails as if the last attempt had just run), so a persistent outage
  /// cannot hold a run hostage for the full exponential ladder. Retries
  /// that do run stay bit-identical — the deadline only cuts the ladder
  /// short, never alters an attempt.
  std::uint64_t max_total_backoff_ms = 0;
  /// Injectable sleep, so tests assert the backoff sequence without
  /// wall-clock waits. Defaults (nullptr) to std::this_thread sleep.
  std::function<void(std::uint64_t backoff_ms)> sleep;
  /// Injectable monotonic clock in milliseconds for the
  /// max_total_backoff_ms deadline. Defaults (nullptr) to
  /// std::chrono::steady_clock.
  std::function<std::uint64_t()> now_ms;
};

/// \brief source.Chunk(chunk, buffer) under `retry`: the one chunk pull
/// of a run. The estimate pass pulls through it via
/// engine::ChunkedEstimation::ChunkRows, the truths' top-up pulls via
/// ChunkPartials::Finish (the variance truth's two passes among them) and
/// the HDR4ME marginal sample directly (one pull of the first surviving
/// chunk), so a chunk a reference pass reads first — e.g. one a resumed
/// run took from its checkpoint — recovers exactly as the estimate pass
/// would.
/// Safe to call concurrently with distinct buffers, like Chunk().
Result<std::span<const double>> PullChunk(const ChunkSource& source,
                                          std::size_t chunk,
                                          ChunkBuffer* buffer,
                                          const RetryPolicy& retry);

/// \brief One partial result per chunk of a source, combined in chunk
/// order: how a run builds its ground truth beside its estimate pass.
///
/// The worker that pulled chunk c stores c's partial — a pure function
/// of that chunk's rows — with Set(c, ...). Slots are distinct, so
/// workers fill them concurrently without a lock and none waits for
/// another; Finish runs once, after they are done. The combine order is
/// the chunk order, so which worker filled which slot, and when, cannot
/// move a bit. `T` provides `void MergeState(const T&)`.
template <typename T>
class ChunkPartials {
 public:
  /// No slot: Finish pulls every surviving chunk.
  ChunkPartials() = default;
  /// `num_chunks` empty slots, ready for concurrent Set calls.
  explicit ChunkPartials(std::size_t num_chunks) : slots_(num_chunks) {}

  /// Stores chunk `chunk`'s partial. Safe to call concurrently for
  /// distinct chunks.
  void Set(std::size_t chunk, T partial) { slots_[chunk] = std::move(partial); }

  /// \brief `total` with the partial of every chunk of `source` outside
  /// `quarantined` (sorted ascending) merged in, in chunk order. A
  /// quarantined chunk is skipped even when its slot is set. A surviving
  /// chunk with no slot set — one a resumed run took from its
  /// checkpoint, or every chunk when nothing was set — is pulled under
  /// `retry` and its partial taken by `of_rows(chunk, rows)`, which
  /// returns Result<T>.
  template <typename OfRows>
  Result<T> Finish(const ChunkSource& source,
                   const std::vector<std::size_t>& quarantined,
                   const RetryPolicy& retry, T total,
                   OfRows&& of_rows) const {
    ChunkBuffer buffer;
    for (std::size_t c = 0; c < source.num_chunks(); ++c) {
      if (std::binary_search(quarantined.begin(), quarantined.end(), c)) {
        continue;
      }
      if (c < slots_.size() && slots_[c].has_value()) {
        total.MergeState(*slots_[c]);
        continue;
      }
      HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                             PullChunk(source, c, &buffer, retry));
      HDLDP_ASSIGN_OR_RETURN(const T pulled, of_rows(c, rows));
      total.MergeState(pulled);
    }
    return total;
  }

 private:
  std::vector<std::optional<T>> slots_;
};

/// \brief Per-dimension mean of the users outside `quarantined` (sorted
/// ascending): each surviving chunk's rows folded into their own
/// compensated column sums (NeumaierColumns), the chunks' sums merged in
/// chunk order (ChunkPartials::Finish) — the ground truth of an estimate
/// that skipped those chunks. `partials` holds the sums of the chunks
/// the estimate pass already pulled; the rest are pulled under `retry`.
/// Either way a chunk's sums are the same, so the result's bits do not
/// depend on which chunks were set. With nothing quarantined this is
/// ChunkSource::TrueMean's default and Dataset::TrueMean.
/// FailedPrecondition when no user survives.
Result<std::vector<double>> SurvivingMean(
    const ChunkSource& source, const std::vector<std::size_t>& quarantined,
    const RetryPolicy& retry, ChunkPartials<NeumaierColumns> partials = {});

/// \brief Copies rows [first_row, first_row + row_count) of `source` into
/// a flat row-major vector (row_count * num_dims doubles). For small
/// gathers — empirical-marginal sampling, debugging — not bulk reads.
Result<std::vector<double>> MaterializeRows(const ChunkSource& source,
                                            std::size_t first_row,
                                            std::size_t row_count);

}  // namespace data
}  // namespace hdldp

#endif  // HDLDP_DATA_CHUNK_SOURCE_H_
