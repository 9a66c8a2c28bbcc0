// Reproduces Figure 2: the analytical (CLT) pdf of the deviation
// theta-hat_j - theta-bar_j against the empirical pdf measured from
// repeated experiments, on the Uniform dataset.
//
// Paper setup: n = 200,000 users, d = 5,000 dimensions, m = 50 reported
// dimensions, eps = 1, 1,000 trials, tracking the first dimension, for
// Laplace / Piecewise / Square wave.
//
// Every user includes the tracked dimension with probability m/d, so only
// that dimension is simulated (protocol::RunSingleDimension); the trial
// count is scaled by HDLDP_BENCH_REPEATS * 100 (default 300 trials).
// Trials run in parallel on framework::ExperimentRunner: each trial draws
// from its own (seed, trial)-derived stream and deviations fold into the
// histogram in trial order, so output is identical for any
// HDLDP_BENCH_THREADS.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "data/generators.h"
#include "framework/deviation_model.h"
#include "framework/experiment_runner.h"
#include "framework/value_distribution.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"
#include "protocol/wire.h"

namespace {

constexpr std::size_t kPaperUsers = 200000;
constexpr std::size_t kDims = 5000;
constexpr std::size_t kReportDims = 50;
constexpr double kEpsilon = 1.0;

// Dimensionality of the end-to-end mean-pipeline wall-time cells below:
// small enough that the materialized dataset stays modest, large enough
// that m << d keeps the sampled engine path honest.
constexpr std::size_t kPipelineDims = 500;

void RunMechanism(const std::string& name, std::size_t users,
                  std::size_t trials, hdldp::bench::JsonRecord* record) {
  using hdldp::framework::ModelDeviation;
  using hdldp::framework::ValueDistribution;

  const auto mechanism = hdldp::mech::MakeMechanism(name).value();
  const double eps_per_dim = kEpsilon / static_cast<double>(kReportDims);
  const double inclusion =
      static_cast<double>(kReportDims) / static_cast<double>(kDims);

  // The tracked dimension of the Uniform dataset.
  hdldp::Rng data_rng(0xF16'2000 + name.size());
  std::vector<double> values(users);
  for (double& v : values) v = data_rng.Uniform(-1.0, 1.0);
  const double true_mean = hdldp::Mean(values);

  // Framework prediction (Lemma 2 / Lemma 3 + Theorem 1 marginal).
  const auto value_dist = ValueDistribution::FromSamples(values, 64).value();
  const double expected_reports = static_cast<double>(users) * inclusion;
  const auto model =
      ModelDeviation(*mechanism, eps_per_dim, value_dist, expected_reports)
          .value();

  // Empirical deviations across trials, trial-parallel and reduced in
  // trial order.
  const double span = 4.0 * model.deviation.stddev;
  const double lo = model.deviation.mean - span;
  const double hi = model.deviation.mean + span;
  auto histogram = hdldp::Histogram::Create(lo, hi, 25).value();
  const hdldp::bench::Stopwatch cell_watch;
  hdldp::framework::ExperimentRunnerOptions runner_options;
  runner_options.seed = 0xF16'2F00 + name.size();
  runner_options.max_workers = hdldp::bench::MaxWorkers();
  hdldp::framework::ExperimentRunner runner(runner_options);
  runner.ForEachTrial(
      trials,
      [&](const hdldp::framework::TrialContext& ctx) {
        hdldp::Rng rng(ctx.seed);
        const auto run = hdldp::protocol::RunSingleDimension(
                             values, *mechanism, eps_per_dim, inclusion, &rng)
                             .value();
        return run.estimated_mean - true_mean;
      },
      [&](double deviation) { histogram.Add(deviation); });

  record->NewCell();
  record->Cell("kind", std::string("fig2_trials"));
  record->Cell("mechanism", name);
  // Stream contract of the per-trial draws (common/rng_lanes.h): a lane
  // variant of the fig-2 harness would be a new scheme, not a silent
  // re-layout of this one.
  record->Cell("scheme", std::string("v1"));
  record->Cell("trials", trials);
  record->Cell("seconds", cell_watch.Seconds());

  std::printf("--- %s (CLT model: delta=%.4g, sigma=%.4g) ---\n",
              name.c_str(), model.deviation.mean, model.deviation.stddev);
  std::printf("%14s %14s %14s\n", "deviation", "pdf(CLT)", "pdf(experiment)");
  for (std::size_t b = 0; b < histogram.num_bins(); ++b) {
    const double x = histogram.BinCenter(b);
    std::printf("%14.5g %14.5g %14.5g\n", x, model.deviation.Pdf(x),
                histogram.DensityAt(b));
  }
  std::printf("\n");
}

// Wire bytes of a representative version-1 numeric report carrying
// `entries` of `dims` dimensions (evenly spaced, the expectation of
// sampling without replacement), for the bytes/user columns.
std::size_t NumericReportBytes(std::size_t dims, std::size_t entries) {
  hdldp::protocol::UserReport report;
  for (std::size_t k = 0; k < entries; ++k) {
    report.entries.push_back(
        {.dimension = static_cast<std::uint32_t>(k * dims / entries),
         .value = 0.5});
  }
  return hdldp::protocol::EncodeReport(report).value().size();
}

// Wire bytes of a worst-case Hadamard 1-bit report at (dims, entries).
std::size_t Hadamard1ReportBytes(std::size_t dims, std::size_t entries) {
  const std::uint32_t padded =
      static_cast<std::uint32_t>(std::bit_ceil(entries));
  const hdldp::protocol::Hadamard1Payload payload = {
      .num_dims = static_cast<std::uint32_t>(dims),
      .report_dims = static_cast<std::uint32_t>(entries),
      .sample_seed = 0xffffffffu,
      .index = padded - 1,
      .positive = true};
  return hdldp::protocol::EncodeHadamard1Payload(payload).value().size();
}

// End-to-end RunMeanEstimation wall time per mechanism (the engine's
// lane-parallel chunk pipeline): the record these cells feed is what
// tracks the mean-path perf trajectory across PRs, next to bench_freq's.
// Both engine paths are recorded — the dense m == d driver (where the
// lane speedup lives) and the sampled m < d driver, the latter under
// BOTH the legacy kV2Lanes per-user layout and the kV3Batched
// cross-user layout, single-core so the before/after cells are
// comparable across runners — so a regression of either path or either
// scheme is visible in BENCH_records.
void RunMeanPipeline(std::size_t users, hdldp::bench::JsonRecord* record) {
  hdldp::Rng data_rng(0xF16'2D00);
  const auto dataset =
      hdldp::data::Generate(hdldp::data::UniformSpec{.num_users = users,
                                                     .num_dims = kPipelineDims},
                            &data_rng)
          .value();
  // Fill the dataset's TrueMean memo outside the timed cells so the
  // first cell is not charged for the shared one-time pass.
  (void)dataset.TrueMean();
  std::printf("--- end-to-end mean pipeline (n=%zu, d=%zu) ---\n", users,
              kPipelineDims);
  std::printf("%-12s %6s %7s %12s %14s\n", "mechanism", "m", "scheme",
              "wall (s)", "naive-MSE");
  for (const auto name :
       {"laplace", "piecewise", "square_wave", "staircase", "scdf"}) {
    const auto mechanism = hdldp::mech::MakeMechanism(name).value();
    double sampled_seconds[2] = {0.0, 0.0};  // v2, v3.
    for (const std::size_t m : {kReportDims, std::size_t{0}}) {
      const bool sampled = m != 0;
      // Sampled cells compare both layouts; dense cells record the
      // default only (v3 dense is laid out exactly as v2).
      std::vector<hdldp::SeedScheme> schemes = {hdldp::SeedScheme::kV3Batched};
      if (sampled) {
        schemes.insert(schemes.begin(), hdldp::SeedScheme::kV2Lanes);
      }
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        hdldp::protocol::PipelineOptions opts;
        opts.total_epsilon = kEpsilon;
        opts.report_dims = m;
        opts.seed = 0xF16'2;
        opts.seed_scheme = schemes[s];
        // Dense cells keep the multi-worker trajectory; the sampled
        // scheme-comparison cells run single-core by design.
        opts.num_threads = sampled ? 1 : hdldp::bench::MaxWorkers();
        // Best-of-repeats: single runs of tens of milliseconds are too
        // noisy on shared runners for before/after cells.
        const std::size_t timing_reps =
            std::max<std::size_t>(hdldp::bench::Repeats(), 3);
        double seconds = std::numeric_limits<double>::infinity();
        hdldp::protocol::MeanEstimationResult run;
        for (std::size_t r = 0; r < timing_reps; ++r) {
          const hdldp::bench::Stopwatch watch;
          run = hdldp::protocol::RunMeanEstimation(dataset, mechanism, opts)
                    .value();
          seconds = std::min(seconds, watch.Seconds());
        }
        if (sampled) sampled_seconds[s] = seconds;
        const std::size_t effective_m = m == 0 ? kPipelineDims : m;
        const char* scheme_name =
            schemes[s] == hdldp::SeedScheme::kV2Lanes ? "v2" : "v3";
        std::printf("%-12s %6zu %7s %12.3f %14.5g\n", name, effective_m,
                    scheme_name, seconds, run.mse);
        record->NewCell();
        record->Cell("kind", std::string("mean_pipeline"));
        record->Cell("mechanism", std::string(name));
        record->Cell("encoding", std::string("dense"));
        record->Cell("report_dims", effective_m);
        record->Cell("scheme", std::string(scheme_name));
        record->Cell("sampled", static_cast<std::size_t>(sampled ? 1 : 0));
        record->Cell("seconds", seconds);
        record->Cell("mse", run.mse);
        record->Cell("bytes_per_user",
                     NumericReportBytes(kPipelineDims, effective_m));
      }
    }
    if (sampled_seconds[1] > 0.0) {
      std::printf("%-12s sampled v2/v3 speedup: %.2fx\n", name,
                  sampled_seconds[0] / sampled_seconds[1]);
    }
  }

  // The Hadamard 1-bit encoding: one sign bit per user instead of m
  // perturbed doubles, so bytes/user is what this cell is really about —
  // the MSE column shows the error cost of the compression at the same
  // (eps, n, d, m). No mechanism is involved (randomized response on a
  // sampled Hadamard coefficient).
  {
    hdldp::protocol::PipelineOptions opts;
    opts.total_epsilon = kEpsilon;
    opts.report_dims = kReportDims;
    opts.seed = 0xF16'2;
    opts.num_threads = 1;
    opts.encoding = hdldp::protocol::ReportEncoding::kHadamard1;
    const std::size_t timing_reps =
        std::max<std::size_t>(hdldp::bench::Repeats(), 3);
    double seconds = std::numeric_limits<double>::infinity();
    hdldp::protocol::MeanEstimationResult run;
    for (std::size_t r = 0; r < timing_reps; ++r) {
      const hdldp::bench::Stopwatch watch;
      run = hdldp::protocol::RunMeanEstimation(dataset, nullptr, opts).value();
      seconds = std::min(seconds, watch.Seconds());
    }
    const std::size_t bytes = Hadamard1ReportBytes(kPipelineDims, kReportDims);
    std::printf("%-12s %6zu %7s %12.3f %14.5g  (%zu bytes/user)\n",
                "hadamard1", kReportDims, "v1", seconds, run.mse, bytes);
    record->NewCell();
    record->Cell("kind", std::string("mean_pipeline"));
    record->Cell("mechanism", std::string("none"));
    record->Cell("encoding", std::string("hadamard1"));
    record->Cell("report_dims", kReportDims);
    record->Cell("scheme", std::string("v1"));
    record->Cell("sampled", std::size_t{1});
    record->Cell("seconds", seconds);
    record->Cell("mse", run.mse);
    record->Cell("bytes_per_user", bytes);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  hdldp::bench::PrintHeader(
      "Figure 2: analysis vs. experiment on Uniform (d=5,000)",
      "n=200,000, d=5,000, m=50, eps=1, 1,000 trials, first dimension");
  const std::size_t users = hdldp::bench::ScaledUsers(kPaperUsers);
  const std::size_t trials = hdldp::bench::Repeats() * 100;
  std::printf("effective   : n=%zu, trials=%zu\n\n", users, trials);
  hdldp::bench::JsonRecord record("bench_fig2");
  record.Meta("users", users);
  record.Meta("trials", trials);
  const hdldp::bench::Stopwatch watch;
  for (const auto name : {"laplace", "piecewise", "square_wave"}) {
    RunMechanism(name, users, trials, &record);
  }
  RunMeanPipeline(users, &record);
  const double total_seconds = watch.Seconds();
  std::printf("end-to-end wall time: %.3f s\n", total_seconds);
  record.Meta("wall_seconds", total_seconds);
  // Machine-readable record: BENCH_mean.json in the CI BENCH_records
  // artifact (same HDLDP_BENCH_JSON convention as bench_freq).
  record.WriteIfRequested();
  return 0;
}
