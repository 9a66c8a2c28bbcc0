// Deterministic fault injection for the streaming data path.
//
// FaultInjectingChunkSource wraps any ChunkSource and applies a
// FaultSchedule — a replayable, seed-keyed map from chunk index to one
// injected fault:
//
//   * kTransient  — the chunk's first `failing_attempts` pulls return
//     Unavailable; later pulls succeed. Models an I/O hiccup; every pull
//     of a run goes through data::PullChunk under the run's RetryPolicy,
//     which recovers these wherever they surface — in the estimate pass
//     or in a reference pass that reads the chunk first (e.g. after a
//     resume) — and the run's estimate and scores are bit-identical to a
//     fault-free run's, because a retry re-pulls the chunk but never
//     touches its RNG stream.
//   * kPersistent — every pull returns DataLoss. Models an
//     unrecoverable bad sector; without the engine's explicit
//     allow-missing-chunks opt-in the run fails cleanly naming the
//     chunk, with it the chunk is quarantined.
//   * kBitFlip    — the pull succeeds but one payload byte is XOR'd.
//     Models silent corruption past the checksum layer; used to test
//     that unverified reads are the only way garbage reaches an
//     estimate (shard v2 reads catch this class via CRC32C).
//
// Determinism: faults are keyed by (chunk, attempt) only. Attempt
// counters are per-chunk atomics, so the schedule replays identically
// at any thread count — each pull retries the same number of times in
// the same per-chunk order regardless of how chunks interleave across
// workers. FaultSchedule::Random derives a schedule from a seed
// with one SplitMix64 draw per chunk, so tests and CI can name an
// entire fault pattern with a single integer.
//
// The wrapper owns its truth (OwnsTrueMean): TrueMean() delegates to the
// base source unfaulted, so the ground truth of a mean run that covered
// every chunk measures the data, not the injected failure model — a
// kBitFlip chunk's corrupted rows never reach it, which a truth taken
// from the estimate pass's pulls could not promise. A run that
// quarantined chunks instead takes its ground truth over the surviving
// chunks only (data::SurvivingMean; the freq truth merges the category
// counts its estimate bodies took, skipping the same chunks) and its
// HDR4ME marginals from one pull of the first surviving chunk, all
// pulled through this wrapper under the same retry policy, so no
// reference pass reads a chunk the estimate skipped. A decorator over
// this wrapper that does not own its truth (a slice, say) is scored from
// the faulted rows it serves: each worker leaves the column sums of the
// chunk it pulled in that chunk's slot (data::ChunkPartials), no worker
// waits for another, and the run merges the slots in chunk order.

#ifndef HDLDP_DATA_FAULT_INJECTION_H_
#define HDLDP_DATA_FAULT_INJECTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "data/chunk_source.h"

namespace hdldp {
namespace data {

/// One injected fault, bound to a single chunk.
struct FaultSpec {
  enum class Kind {
    kTransient,   ///< First `failing_attempts` pulls fail (Unavailable).
    kPersistent,  ///< Every pull fails (DataLoss).
    kBitFlip,     ///< Pull succeeds with one payload byte XOR'd.
  };

  Kind kind = Kind::kTransient;
  /// Chunk the fault applies to.
  std::size_t chunk = 0;
  /// kTransient only: pulls 1..failing_attempts return Unavailable.
  int failing_attempts = 1;
  /// kBitFlip only: byte to corrupt (taken modulo the chunk's byte
  /// length) and the XOR mask applied to it.
  std::size_t byte_offset = 0;
  unsigned char xor_mask = 0x01;
};

/// \brief A replayable set of injected faults, at most one per chunk.
///
/// Value type; copy it freely. The same schedule applied to the same
/// source replays the same faults in the same places every time.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Adds a fault; a second Add for the same chunk replaces the first.
  void Add(const FaultSpec& spec) { faults_[spec.chunk] = spec; }

  /// The fault bound to `chunk`, or nullptr.
  const FaultSpec* Find(std::size_t chunk) const {
    const auto it = faults_.find(chunk);
    return it == faults_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return faults_.size(); }
  bool empty() const { return faults_.empty(); }

  /// Chunks with faults, sorted ascending (for reporting and tests).
  std::vector<std::size_t> FaultedChunks() const;

  /// Options for Random().
  struct RandomOptions {
    double transient_rate = 0.0;
    double persistent_rate = 0.0;
    double bit_flip_rate = 0.0;
    /// failing_attempts assigned to every transient fault drawn.
    int failing_attempts = 1;
  };

  /// \brief Derives a schedule from `seed`: each chunk independently
  /// draws its fate from one SplitMix64 stream keyed by (seed, chunk).
  /// Same (seed, num_chunks, options) — same schedule, on every
  /// platform and at every thread count. Rates are probabilities in
  /// [0, 1] and are tried in order transient, persistent, bit-flip.
  static FaultSchedule Random(std::uint64_t seed, std::size_t num_chunks,
                              const RandomOptions& options);

 private:
  std::unordered_map<std::size_t, FaultSpec> faults_;
};

/// \brief Transport fate of one report in the service ingestion stream.
///
/// The report-stream analogue of FaultSpec: where chunk faults model a
/// failing storage read, report faults model a lossy, duplicating,
/// reordering network between devices and the collector — exactly the
/// conditions the aggregation service's dedup/out-of-order machinery
/// exists for.
struct ReportFate {
  /// Report never reaches the collector.
  bool drop = false;
  /// Report arrives again (same envelope, retransmit) `duplicates` extra
  /// times.
  int duplicates = 0;
  /// Report is delayed by this many stream slots past its natural
  /// position, arriving after later-sent reports (out-of-order delivery).
  std::size_t reorder_delay = 0;
};

/// \brief A deterministic report-stream fault model.
///
/// Stateless by construction: Fate(i) draws from one SplitMix64 stream
/// keyed by (seed, i) — the per-chunk fate-hash pattern of
/// FaultSchedule::Random — so the fate of report i never depends on
/// which reports were asked about before it or on how the stream is
/// pulled. Same (seed, rates), same faults, on every platform, at every
/// thread count, and across a crash/restore boundary (the service
/// replays the stream suffix and every replayed report meets the same
/// fate).
class ReportFaultSchedule {
 public:
  struct Options {
    double drop_rate = 0.0;
    double duplicate_rate = 0.0;
    double reorder_rate = 0.0;
    /// Delay (stream slots) assigned to every reordered report.
    std::size_t reorder_delay = 3;
  };

  ReportFaultSchedule() = default;
  ReportFaultSchedule(std::uint64_t seed, const Options& options)
      : seed_(seed), options_(options) {}

  /// True iff any rate is nonzero.
  bool active() const {
    return options_.drop_rate > 0.0 || options_.duplicate_rate > 0.0 ||
           options_.reorder_rate > 0.0;
  }

  /// \brief The fate of stream report `index` — a pure function of
  /// (seed, options, index). Rates are tried in order drop, duplicate,
  /// reorder on one uniform draw, so at most one fault applies per
  /// report.
  ReportFate Fate(std::uint64_t index) const;

 private:
  std::uint64_t seed_ = 0;
  Options options_;
};

/// \brief ChunkSource wrapper that injects the schedule's faults into
/// Chunk() pulls (non-owning; base must outlive the wrapper).
///
/// Thread-safe like any ChunkSource: attempt counters are atomics, and
/// concurrent pulls of distinct chunks never interact.
class FaultInjectingChunkSource final : public ChunkSource {
 public:
  FaultInjectingChunkSource(const ChunkSource* base, FaultSchedule schedule);

  std::size_t num_users() const override { return base_->num_users(); }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;
  /// Reference passes measure the data, not the failure model.
  Result<std::vector<double>> TrueMean() const override {
    return base_->TrueMean();
  }
  bool OwnsTrueMean() const override { return true; }

  /// Pulls observed for `chunk` so far (includes failed attempts).
  std::uint32_t attempts(std::size_t chunk) const;

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  const ChunkSource* base_;
  FaultSchedule schedule_;
  // One counter per chunk; unique_ptr array because std::atomic is not
  // movable and the count is fixed at construction.
  std::unique_ptr<std::atomic<std::uint32_t>[]> attempts_;
};

}  // namespace data
}  // namespace hdldp

#endif  // HDLDP_DATA_FAULT_INJECTION_H_
