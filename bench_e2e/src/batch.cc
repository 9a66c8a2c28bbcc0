// The three batch workloads. Each is a closed loop of back-to-back
// estimation jobs over one population generated during setup: a mean
// job is the CLI's `mean` verb in library calls (pipeline, per-dimension
// deviation models over a 2000-row marginal, HDR4ME-L1), a frequency
// job is `freq` (pipeline with its built-in re-calibration). Job k runs
// the pipeline at seed + k.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generator_source.h"
#include "data/shard.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "harness.h"
#include "hdr4me/recalibrate.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"
#include "protocol/client.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace bench_e2e {
namespace {

using data::ChunkSource;

// Rows and support size of the per-dimension empirical marginals the
// framework models (the CLI's choices).
constexpr std::size_t kMarginalRows = 2000;
constexpr std::size_t kMarginalSupport = 16;
constexpr std::size_t kMinJobs = 3;
// Seed tags separating the population from the per-job pipeline seeds.
constexpr std::uint64_t kMeanDataTag = 0xDA7Aull;
constexpr std::uint64_t kFreqDataTag = 0xF8E0ull;

// What one job reports besides its timing.
struct JobResult {
  std::uint64_t digest = 0;
  // Mean jobs: naive MSE / HDR4ME-L1 MSE. Freq jobs: naive MSE / MSE of
  // the uniform-frequency guess.
  double quality = 0.0;
};

// One job k at `threads` threads over `source`; spans hang under
// `job_span` when `tracer` is set.
using JobFn = std::function<Result<JobResult>(
    const ChunkSource& source, std::uint64_t k, std::size_t threads,
    Tracer* tracer, std::uint64_t job_span)>;

// A batch workload after its setup.
struct BatchWorkload {
  const ChunkSource* source = nullptr;
  JobFn job;
  // Single-threaded replays of the mech, common and protocol layers at
  // the workload's shape; each records one per-layer metric.
  std::function<Status(Outcome*)> replays;
  // Name of the pipeline span (the engine-layer call).
  const char* pipeline_span = "";
  // What JobResult::quality is, for the report.
  const char* quality_name = "";
};

// Runs jobs back to back for `seconds` (at least kMinJobs), appending
// wall times; stops at the first failed job.
Status JobLoop(const BatchWorkload& w, const ChunkSource& source,
               double seconds, Tracer* tracer, std::uint64_t* next_job,
               std::vector<double>* walls, std::vector<double>* quality,
               std::uint64_t* first_digest, Outcome* out) {
  const double start = Now();
  const std::size_t begin = walls->size();
  while (walls->size() - begin < kMinJobs || Now() - start < seconds) {
    const std::uint64_t k = (*next_job)++;
    const double t0 = Now();
    Result<JobResult> job = [&]() -> Result<JobResult> {
      Span span(tracer, "job");
      return w.job(source, k, kThreads, tracer, span.id());
    }();
    walls->push_back(Now() - t0);
    out->Attempt(job.ok());
    if (!job.ok()) {
      out->Check(false, "job " + std::to_string(k) + ": " +
                            job.status().ToString());
      return job.status();
    }
    if (k == 0) *first_digest = job->digest;
    quality->push_back(job->quality);
  }
  return Status::OK();
}

// Length of the union of the intervals, clipped to [lo, hi).
double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, reach);
    e = std::min(e, hi);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return covered;
}

// Shares of traced job wall time per layer, from the recorded spans.
struct LayerShares {
  double job = 0.0;        // summed job wall
  double pull = 0.0;       // summed data.Chunk time (all threads)
  double true_mean = 0.0;  // data.TrueMean
  double engine_self = 0.0;
  double framework = 0.0;
  double hdr4me = 0.0;
  double covered = 0.0;  // top-level stage spans
};

LayerShares Attribute(const std::vector<SpanRecord>& spans,
                      const std::string& pipeline_span) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == "data.Chunk" || name == "data.TrueMean") {
      children[s.parent].emplace_back(s.begin, s.end);
    }
  }
  LayerShares t;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    const double dur = s.end - s.begin;
    if (name == "job") {
      t.job += dur;
    } else if (name == "data.Chunk") {
      t.pull += dur;
    } else if (name == "data.TrueMean") {
      t.true_mean += dur;
    } else if (name == "framework.ModelDeviation") {
      t.framework += dur;
      t.covered += dur;
    } else if (name == "hdr4me.Recalibrate") {
      t.hdr4me += dur;
      t.covered += dur;
    } else if (name == pipeline_span) {
      t.covered += dur;
      t.engine_self += dur - UnionLength(children[s.id], s.begin, s.end);
    }
  }
  return t;
}

Status RunBatch(const Args& args, const BatchWorkload& w, std::size_t users,
                double setup_s, Outcome* out) {
  std::uint64_t next_job = 0;
  std::uint64_t digest = 0;
  std::vector<double> walls;
  std::vector<double> quality;
  const double untraced_seconds = args.traced() ? args.seconds / 2 : args.seconds;
  HDLDP_RETURN_NOT_OK(JobLoop(w, *w.source, untraced_seconds, nullptr,
                              &next_job, &walls, &quality, &digest, out));
  const Summary jobs = Summarize(walls);
  std::printf("  %zu jobs of %zu users; job wall ms: p50 %.4g %s %.4g; "
              "median %s %.6g\n",
              jobs.count, users, 1e3 * jobs.p50,
              PercentileName(jobs.tail_quantile).c_str(), 1e3 * jobs.tail,
              w.quality_name, Median(quality));
  out->CheckDigest(args, digest);
  if (!args.traced()) {
    out->Metric("setup_s", setup_s, "s",
                "median of " + std::to_string(kSetupRepeats) + " setups");
    out->Metric("users_per_s", static_cast<double>(users) / jobs.p50,
                "users/s", "users / median job wall");
    out->Metric("latency_p50_ms", 1e3 * jobs.p50, "ms",
                "median job wall, n=" + std::to_string(jobs.count));
    out->Metric("peak_rss_mb", PeakRssMb(), "MiB", "VmHWM");
    return Status::OK();
  }

  Tracer tracer;
  TimedChunkSource timed(w.source, &tracer);
  std::vector<double> traced_walls;
  HDLDP_RETURN_NOT_OK(JobLoop(w, timed, args.seconds / 2, &tracer, &next_job,
                              &traced_walls, &quality, &digest, out));
  const double single_start = Now();
  const Result<JobResult> single =
      w.job(*w.source, next_job++, 1, nullptr, 0);
  const double single_wall = Now() - single_start;
  out->Attempt(single.ok());
  out->Check(single.ok(), "1-thread job: " + single.status().ToString());

  const LayerShares t = Attribute(tracer.spans(), w.pipeline_span);
  const double threads = static_cast<double>(kThreads);
  out->Metric("data.pull_share", t.pull / (t.job * threads), "share",
              "summed pull time / (job wall x threads)");
  out->Metric("data.pull_gbps",
              t.pull > 0 ? 1e-9 * static_cast<double>(timed.bytes()) / t.pull
                         : 0.0,
              "GB/s", std::to_string(timed.pulls()) + " pulls");
  out->Metric("data.true_mean_share", t.true_mean / t.job, "share");
  out->Metric("engine.self_share", t.engine_self / t.job, "share",
              std::string(w.pipeline_span) + " minus its data spans");
  out->Metric("framework.model_share", t.framework / t.job, "share");
  out->Metric("hdr4me.recalibrate_share", t.hdr4me / t.job, "share");
  out->Metric("service.submit_share", 0.0, "share", "not on this workload");
  out->Metric("service.advance_share", 0.0, "share", "not on this workload");
  out->Metric("service.snapshot_share", 0.0, "share", "not on this workload");
  HDLDP_RETURN_NOT_OK(w.replays(out));
  out->Metric("job.parallel_efficiency",
              single_wall / (threads * Median(walls)), "ratio",
              "1-thread job / (4 x median 4-thread job)");
  out->Metric("trace.overhead", Median(traced_walls) / Median(walls), "ratio",
              "traced / untraced median job wall");
  out->Metric("trace.span_coverage", t.covered / t.job, "share",
              "stage spans / job wall");
  out->Check(t.covered >= 0.9 * t.job, "stage spans cover 90% of job wall");
  out->Check(timed.errors() == 0, "no data pull failed");
  const std::string path = args.trace_out + "/" + args.workload + ".json";
  HDLDP_RETURN_NOT_OK(tracer.WriteChromeJson(path));
  std::printf("  trace: %s (%zu spans)\n", path.c_str(),
              tracer.spans().size());
  return Status::OK();
}

// Layer replays of a batch workload: the client-side layers, then the
// aggregator fold the pipeline uses. `natives` is one chunk of mechanism
// inputs and `dims` the aggregator dimension of each entry, empty for a
// dense block of whole rows (m = d).
Status ReplayLayers(const mech::SamplerPlan& plan,
                    const std::vector<double>& natives,
                    const std::vector<std::uint32_t>& dims,
                    std::size_t aggregator_dims, std::size_t sample_d,
                    std::size_t sample_m, std::uint64_t seed, Outcome* out) {
  const std::vector<double> perturbed =
      ReplayClientLayers(plan, natives, sample_d, sample_m, seed, out);
  HDLDP_ASSIGN_OR_RETURN(protocol::MeanAggregator agg,
                         protocol::MeanAggregator::Create(aggregator_dims, {}));
  Status fold = Status::OK();
  const double rate = ReplayRate(kReplaySeconds, [&] {
    if (fold.ok()) {
      fold = dims.empty() ? agg.ConsumeDense(perturbed)
                          : agg.ConsumeScattered(dims, perturbed);
    }
  });
  HDLDP_RETURN_NOT_OK(fold);
  out->Metric("protocol.consume_mvals_per_s",
              1e-6 * rate * static_cast<double>(perturbed.size()), "Mvals/s",
              dims.empty() ? "ConsumeDense" : "ConsumeScattered");
  return Status::OK();
}

// ---------------------------------------------------------------------
// Mean workloads.

struct MeanSpec {
  std::size_t users;
  std::size_t dims;
  std::size_t report_dims;
  const char* mechanism;
  double epsilon;
};

Result<JobResult> RunMeanJob(const ChunkSource& source,
                             const mech::MechanismPtr& mechanism,
                             const MeanSpec& spec, std::uint64_t seed,
                             std::size_t threads, Tracer* tracer,
                             std::uint64_t job_span) {
  protocol::PipelineOptions options;
  options.total_epsilon = spec.epsilon;
  options.report_dims = spec.report_dims;
  options.seed = seed;
  options.num_threads = threads;
  protocol::MeanEstimationResult run;
  {
    Span span(tracer, "protocol.RunMeanEstimation", job_span);
    if (tracer != nullptr) tracer->stage = span.id();
    HDLDP_ASSIGN_OR_RETURN(
        run, protocol::RunMeanEstimation(source, mechanism, options));
  }

  const std::size_t n = source.num_users();
  const std::size_t d = source.num_dims();
  std::vector<framework::GaussianDeviation> deviations;
  double predicted = 0.0;
  {
    Span span(tracer, "framework.ModelDeviation", job_span);
    if (tracer != nullptr) tracer->stage = span.id();
    const std::size_t rows = std::min(n, kMarginalRows);
    HDLDP_ASSIGN_OR_RETURN(const std::vector<double> marginals,
                           data::MaterializeRows(source, 0, rows));
    std::vector<double> column(rows);
    const double reports = static_cast<double>(n) *
                           static_cast<double>(spec.report_dims) /
                           static_cast<double>(d);
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t i = 0; i < rows; ++i) column[i] = marginals[i * d + j];
      HDLDP_ASSIGN_OR_RETURN(
          const framework::ValueDistribution values,
          framework::ValueDistribution::FromSamples(column, kMarginalSupport));
      HDLDP_ASSIGN_OR_RETURN(
          const framework::DeviationModel model,
          framework::ModelDeviation(*mechanism, run.per_dim_epsilon, values,
                                    reports));
      deviations.push_back(model.deviation);
    }
    HDLDP_ASSIGN_OR_RETURN(predicted, framework::PredictedMse(deviations));
  }

  hdr4me::RecalibrationResult recalibrated;
  {
    Span span(tracer, "hdr4me.Recalibrate", job_span);
    hdr4me::Hdr4meOptions h;
    h.regularizer = hdr4me::Regularizer::kL1;
    HDLDP_ASSIGN_OR_RETURN(
        recalibrated, hdr4me::Recalibrate(run.estimated_mean, deviations, h));
  }
  HDLDP_ASSIGN_OR_RETURN(const double l1_mse,
                         protocol::MeanSquaredError(recalibrated.enhanced_mean,
                                                    run.true_mean));
  // The framework must predict the error the estimator shows.
  if (!(run.mse >= predicted / 3 && run.mse <= 3 * predicted)) {
    return Status::Internal("naive MSE " + std::to_string(run.mse) +
                            " outside [1/3, 3] x predicted " +
                            std::to_string(predicted));
  }
  Digest digest;
  digest.Add(run.estimated_mean);
  digest.Add(recalibrated.enhanced_mean);
  return JobResult{digest.value(), run.mse / l1_mse};
}

// Replays at a mean workload's shape over the first chunk of `source`.
Status MeanReplays(const ChunkSource& source,
                   const mech::MechanismPtr& mechanism, const MeanSpec& spec,
                   std::uint64_t seed, Outcome* out) {
  HDLDP_ASSIGN_OR_RETURN(
      const protocol::Client client,
      protocol::Client::Create(mechanism, spec.dims,
                               {.total_epsilon = spec.epsilon,
                                .report_dims = spec.report_dims}));
  const std::size_t users = std::min(source.num_users(), data::kUsersPerChunk);
  HDLDP_ASSIGN_OR_RETURN(const std::vector<double> rows,
                         data::MaterializeRows(source, 0, users));
  std::vector<double> natives;
  std::vector<std::uint32_t> dims;
  if (spec.report_dims == spec.dims) {
    for (const double v : rows) natives.push_back(client.domain_map().Forward(v));
  } else {
    Rng rng(seed);
    BatchSamplerScratch scratch;
    rng.SampleWithoutReplacementBatch(spec.dims, spec.report_dims, users, true,
                                      &scratch, &dims);
    for (std::size_t k = 0; k < dims.size(); ++k) {
      const std::size_t user = k / spec.report_dims;
      natives.push_back(
          client.domain_map().Forward(rows[user * spec.dims + dims[k]]));
    }
  }
  return ReplayLayers(client.plan(), natives, dims, spec.dims, spec.dims,
                      spec.report_dims, seed, out);
}

BatchWorkload MeanWorkload(const ChunkSource* source,
                           const mech::MechanismPtr& mechanism,
                           const MeanSpec& spec, const Args& args) {
  BatchWorkload w;
  w.source = source;
  w.pipeline_span = "protocol.RunMeanEstimation";
  w.quality_name = "hdr4me_gain (naive / HDR4ME-L1 MSE)";
  w.job = [mechanism, spec, seed = args.seed](
              const ChunkSource& src, std::uint64_t k, std::size_t threads,
              Tracer* tracer, std::uint64_t job_span) {
    return RunMeanJob(src, mechanism, spec, seed + k, threads, tracer,
                      job_span);
  };
  w.replays = [source, mechanism, spec, seed = args.seed](Outcome* out) {
    return MeanReplays(*source, mechanism, spec, seed, out);
  };
  return w;
}

}  // namespace

// Out-of-cache dense data: the population lives in checksummed shard
// files twice the size of a 105 MiB last-level cache, every job
// re-reads it through mmap + CRC32C and runs the serial ground-truth
// pass, and m = d takes the dense lane / ConsumeDense path. The data
// layer and the dense engine path do most of the work.
Status RunMeanDenseShard(const Args& args, Outcome* out) {
  const MeanSpec spec{args.Scaled(131072, 4096), 200, 200, "piecewise", 0.4};
  HDLDP_ASSIGN_OR_RETURN(const mech::MechanismPtr mechanism,
                         mech::MakeMechanism(spec.mechanism));
  const ScratchDir scratch(args);
  const std::string dir = scratch.path() + "/shards";
  std::optional<data::ShardFileSource> shards;
  double setup_s = 0.0;
  HDLDP_RETURN_NOT_OK(TimeSetup(
      [&]() -> Status {
        shards.reset();
        std::filesystem::remove_all(dir);
        data::GaussianSpec gaussian;
        gaussian.num_users = spec.users;
        gaussian.num_dims = spec.dims;
        HDLDP_ASSIGN_OR_RETURN(
            const data::GeneratorChunkSource generator,
            data::GeneratorChunkSource::Create(gaussian,
                                               args.seed ^ kMeanDataTag));
        HDLDP_RETURN_NOT_OK(data::WriteShards(generator, dir).status());
        HDLDP_ASSIGN_OR_RETURN(data::ShardFileSource opened,
                               data::ShardFileSource::Open(dir));
        shards.emplace(std::move(opened));
        return Status::OK();
      },
      &setup_s));
  return RunBatch(args, MeanWorkload(&*shards, mechanism, spec, args),
                  spec.users, setup_s, out);
}

// The paper's regime: many dimensions, few reported per user (m of d
// sampling), where HDR4ME's re-calibration pays off most. The
// population is resident (zero-copy chunks, ground truth memoized in
// setup), so the data layer is bypassed; the per-dimension deviation
// models dominate, then dimension sampling and ConsumeScattered.
Status RunMeanSampledHdr4me(const Args& args, Outcome* out) {
  const MeanSpec spec{args.Scaled(32768, 4096), 1024, 32, "piecewise", 1.0};
  HDLDP_ASSIGN_OR_RETURN(const mech::MechanismPtr mechanism,
                         mech::MakeMechanism(spec.mechanism));
  std::optional<data::Dataset> dataset;
  std::optional<data::ResidentChunkSource> resident;
  double setup_s = 0.0;
  HDLDP_RETURN_NOT_OK(TimeSetup(
      [&]() -> Status {
        resident.reset();
        dataset.reset();
        data::GaussianSpec gaussian;
        gaussian.num_users = spec.users;
        gaussian.num_dims = spec.dims;
        HDLDP_ASSIGN_OR_RETURN(
            data::Dataset generated,
            data::GenerateChunkKeyed(gaussian, args.seed ^ kMeanDataTag));
        dataset.emplace(std::move(generated));
        dataset->TrueMean();
        resident.emplace(&*dataset);
        return Status::OK();
      },
      &setup_s));
  return RunBatch(args, MeanWorkload(&*resident, mechanism, spec, args),
                  spec.users, setup_s, out);
}

// ---------------------------------------------------------------------
// Frequency workload: one-hot expansion makes every sampled question 16
// perturbed entries, so lane perturbation (PerturbLanes) does most of
// the work — the path the roadmap calls perturbation-bound.

namespace {

constexpr std::size_t kQuestions = 64;
constexpr std::size_t kCategories = 16;
constexpr std::size_t kSampledQuestions = 4;
constexpr double kFreqEpsilon = 1.0;

Result<JobResult> RunFreqJob(const ChunkSource& source,
                             const freq::CategoricalSchema& schema,
                             const mech::MechanismPtr& mechanism,
                             std::uint64_t seed, std::size_t threads,
                             Tracer* tracer, std::uint64_t job_span) {
  freq::FrequencyOptions options;
  options.total_epsilon = kFreqEpsilon;
  options.report_dims = kSampledQuestions;
  options.seed = seed;
  options.num_threads = threads;
  freq::FrequencyEstimationResult run;
  {
    Span span(tracer, "freq.RunFrequencyEstimation", job_span);
    if (tracer != nullptr) tracer->stage = span.id();
    HDLDP_ASSIGN_OR_RETURN(run, freq::RunFrequencyEstimation(
                                    source, schema, mechanism, options));
  }
  double uniform_mse = 0.0;
  std::size_t entries = 0;
  Digest digest;
  for (std::size_t j = 0; j < run.true_frequencies.size(); ++j) {
    const double guess = 1.0 / static_cast<double>(schema.Cardinality(j));
    for (const double f : run.true_frequencies[j]) {
      uniform_mse += (f - guess) * (f - guess);
      ++entries;
    }
    digest.Add(run.raw[j]);
    digest.Add(run.recalibrated[j]);
  }
  uniform_mse /= static_cast<double>(entries);
  if (!std::isfinite(run.mse_raw) || !(run.mse_raw < uniform_mse)) {
    return Status::Internal("naive MSE " + std::to_string(run.mse_raw) +
                            " not below the uniform guess's " +
                            std::to_string(uniform_mse));
  }
  return JobResult{digest.value(), run.mse_raw / uniform_mse};
}

Status FreqReplays(const freq::CategoricalDataset& dataset,
                   const mech::MechanismPtr& mechanism, std::uint64_t seed,
                   Outcome* out) {
  const double per_entry_eps =
      kFreqEpsilon / (2.0 * static_cast<double>(kSampledQuestions));
  HDLDP_ASSIGN_OR_RETURN(
      const mech::DomainMap map,
      mech::DomainMap::Between({0.0, 1.0}, mechanism->InputDomain()));
  const std::size_t users = std::min(dataset.num_users(), data::kUsersPerChunk);
  Rng rng(seed);
  BatchSamplerScratch scratch;
  std::vector<std::uint32_t> questions;
  rng.SampleWithoutReplacementBatch(kQuestions, kSampledQuestions, users, true,
                                    &scratch, &questions);
  std::vector<double> natives;
  std::vector<std::uint32_t> entries;
  for (std::size_t k = 0; k < questions.size(); ++k) {
    const std::uint32_t q = questions[k];
    const std::uint32_t answer = dataset.At(k / kSampledQuestions, q);
    for (std::uint32_t c = 0; c < kCategories; ++c) {
      entries.push_back(static_cast<std::uint32_t>(q * kCategories + c));
      natives.push_back(map.Forward(c == answer ? 1.0 : 0.0));
    }
  }
  return ReplayLayers(mechanism->MakePlan(per_entry_eps), natives, entries,
                      kQuestions * kCategories, kQuestions, kSampledQuestions,
                      seed, out);
}

}  // namespace

Status RunFreqSampledOnehot(const Args& args, Outcome* out) {
  // Not scaled: below this many users the naive estimate is no better
  // than the uniform guess at eps = 1, and the job check would fail.
  const std::size_t users = 262144;
  HDLDP_ASSIGN_OR_RETURN(const mech::MechanismPtr mechanism,
                         mech::MakeMechanism("laplace"));
  HDLDP_ASSIGN_OR_RETURN(const freq::CategoricalSchema schema,
                         freq::CategoricalSchema::Create(
                             std::vector<std::size_t>(kQuestions, kCategories)));
  std::optional<freq::CategoricalDataset> dataset;
  std::optional<freq::CategoricalChunkSource> source;
  double setup_s = 0.0;
  HDLDP_RETURN_NOT_OK(TimeSetup(
      [&]() -> Status {
        source.reset();
        dataset.reset();
        Rng rng(args.seed ^ kFreqDataTag);
        HDLDP_ASSIGN_OR_RETURN(
            freq::CategoricalDataset generated,
            freq::GenerateCategorical(users, schema, 1.0, &rng));
        dataset.emplace(std::move(generated));
        source.emplace(&*dataset);
        return Status::OK();
      },
      &setup_s));
  BatchWorkload w;
  w.source = &*source;
  w.pipeline_span = "freq.RunFrequencyEstimation";
  w.quality_name = "naive MSE / uniform-guess MSE";
  w.job = [&schema, mechanism, seed = args.seed](
              const ChunkSource& src, std::uint64_t k, std::size_t threads,
              Tracer* tracer, std::uint64_t job_span) {
    return RunFreqJob(src, schema, mechanism, seed + k, threads, tracer,
                      job_span);
  };
  w.replays = [&dataset, mechanism, seed = args.seed](Outcome* out) {
    return FreqReplays(*dataset, mechanism, seed, out);
  };
  return RunBatch(args, w, users, setup_s, out);
}

}  // namespace bench_e2e
}  // namespace hdldp
