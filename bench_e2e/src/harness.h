// Shared harness of the bench_e2e benchmark: command-line arguments, the
// per-run outcome and its JSON result line, timing statistics, estimate
// digests, the span recorder behind traced runs, the timed ChunkSource
// decorator and the single-threaded layer replay loop.

#ifndef HDLDP_BENCH_E2E_HARNESS_H_
#define HDLDP_BENCH_E2E_HARNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/chunk_source.h"
#include "mech/plan.h"

namespace hdldp {
namespace bench_e2e {

/// Seed at which every workload's estimate digest must equal the
/// checked-in baseline.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Threads one workload process may keep busy (the machine's core count
/// the workloads are sized for).
inline constexpr std::size_t kThreads = 4;

/// Command line of one workload process.
struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// Measured time of the run, setup excluded.
  double seconds = 10.0;
  /// Multiplies every user and report count (the smoke test runs 0.01).
  double scale = 1.0;
  /// Shards, snapshots and other run files go below this directory.
  std::string scratch_dir = ".bench_scratch";
  /// Non-empty: a traced run, which reports per-layer metrics and writes
  /// its spans as Chrome trace-event JSON into this directory.
  std::string trace_out;
  /// Baseline digest file ("<workload> <hex digest>" lines), checked when
  /// the run uses kDefaultSeed at scale 1.
  std::string expect_digests;

  bool traced() const { return !trace_out.empty(); }
  /// Scaled count, never below `floor`.
  std::size_t Scaled(std::size_t count, std::size_t floor = 1) const;
};

/// Monotonic clock in seconds.
double Now();

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> samples);

/// Median and tail of a timing sample. The tail is the highest quantile
/// that leaves at least ten samples beyond it, capped at 0.99; with fewer
/// than 20 samples it is the median.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_quantile = 0.5;
  std::size_t count = 0;
};
Summary Summarize(std::vector<double> samples);
/// "p97.5" for quantile 0.975.
std::string PercentileName(double quantile);

/// FNV-1a over the bit patterns of doubles.
class Digest {
 public:
  void Add(double value);
  void Add(std::span<const double> values) {
    for (const double v : values) Add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// What one workload process measured and checked.
class Outcome {
 public:
  /// Records a metric for the JSON line and prints it.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// Records a check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Counts one attempted operation, failed unless `ok`.
  void Attempt(bool ok, std::uint64_t count = 1);
  /// Compares the run's estimate digest against the baseline file when
  /// the run is at the default seed and full scale.
  void CheckDigest(const Args& args, std::uint64_t digest);

  bool correct() const { return correct_; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string JsonLine() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
};

/// One recorded span. Times are Now() seconds.
struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t tid = 0;
  double begin = 0.0;
  double end = 0.0;
};

/// \brief In-memory span recorder of a traced run. Record() is
/// thread-safe (pool threads record data pulls); spans are written out
/// once, when the workload ends.
class Tracer {
 public:
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const SpanRecord& span);
  std::vector<SpanRecord> spans() const;
  /// Writes every span as Chrome trace-event JSON ("X" events).
  Status WriteChromeJson(const std::string& path) const;

  /// The stage span spans recorded by pool threads hang under: the
  /// calling thread sets it around each library call.
  std::atomic<std::uint64_t> stage{0};

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

/// \brief ChunkSource decorator of traced runs: times every Chunk() and
/// TrueMean() call of the wrapped source as a data-layer span and counts
/// pulls, bytes and errors. TrueMean() forwards to the wrapped source, so
/// estimates keep their bits.
class TimedChunkSource final : public data::ChunkSource {
 public:
  TimedChunkSource(const data::ChunkSource* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  std::size_t num_users() const override { return base_->num_users(); }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(
      std::size_t chunk, data::ChunkBuffer* buffer) const override;
  Result<std::vector<double>> TrueMean() const override;

  std::uint64_t pulls() const { return pulls_.load(); }
  std::uint64_t bytes() const { return bytes_.load(); }
  std::uint64_t errors() const { return errors_.load(); }

 private:
  const data::ChunkSource* base_;
  Tracer* tracer_;
  mutable std::atomic<std::uint64_t> pulls_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
  mutable std::atomic<std::uint64_t> errors_{0};
};

/// The run's own directory below Args::scratch_dir, removed when the
/// run ends.
class ScratchDir {
 public:
  explicit ScratchDir(const Args& args);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Runs `setup` kSetupRepeats times and stores the median wall time.
inline constexpr int kSetupRepeats = 5;
Status TimeSetup(const std::function<Status()>& setup, double* median);

/// Duration of each single-threaded layer replay of a traced run.
inline constexpr double kReplaySeconds = 0.2;

/// Runs `body` back to back on the calling thread for at least `seconds`
/// and returns the number of calls per second.
double ReplayRate(double seconds, const std::function<void()>& body);

/// \brief Single-threaded replays of the client-side layers at a
/// workload's shape: mech::PerturbLanes of `plan` over `natives` (one
/// chunk of mechanism inputs) and Rng::SampleWithoutReplacementBatch of
/// m of d dimensions for one chunk of users. Records
/// mech.perturb_mvals_per_s and common.sample_dims_musers_per_s and
/// returns the perturbed block, the input of the aggregator replay.
std::vector<double> ReplayClientLayers(const mech::SamplerPlan& plan,
                                       const std::vector<double>& natives,
                                       std::size_t d, std::size_t m,
                                       std::uint64_t seed, Outcome* out);

/// Workload entry points (batch.cc, service.cc).
Status RunMeanDenseShard(const Args& args, Outcome* out);
Status RunMeanSampledHdr4me(const Args& args, Outcome* out);
Status RunFreqSampledOnehot(const Args& args, Outcome* out);
Status RunServiceStream(const Args& args, Outcome* out);

}  // namespace bench_e2e
}  // namespace hdldp

#endif  // HDLDP_BENCH_E2E_HARNESS_H_
