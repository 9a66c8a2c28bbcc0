// Frequency-estimation extension benchmark (paper Section V-C, experiment
// A4 in DESIGN.md): raw vs. HDR4ME-re-calibrated frequency MSE across
// mechanisms, category cardinalities and budgets, on Zipf-distributed
// categorical data.
//
// The expanded one-hot space has sum_j v_j entries, each perturbed at
// eps/(2m): exactly the high-dimensional regime HDR4ME targets.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "framework/experiment_runner.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "mech/registry.h"
#include "protocol/wire.h"

namespace {

constexpr std::size_t kPaperUsers = 100000;
constexpr std::size_t kDims = 20;  // Categorical dimensions.

// Wire bytes of one representative report under each encoding, so the
// per-encoding cells record communication cost next to wall time and
// error. Worst-case representative (last m dimensions, largest bucket
// value): every varint is at its widest, so the figure is an upper
// bound on any real report of the same geometry.
std::size_t NumericFreqReportBytes(std::size_t m, std::size_t cardinality) {
  hdldp::protocol::UserReport report;
  for (std::size_t j = kDims - m; j < kDims; ++j) {
    for (std::size_t k = 0; k < cardinality; ++k) {
      report.entries.push_back(
          {.dimension = static_cast<std::uint32_t>(j * cardinality + k),
           .value = 0.5});
    }
  }
  return hdldp::protocol::EncodeReport(report).value().size();
}

std::size_t OueReportBytes(std::size_t m, std::size_t cardinality) {
  hdldp::protocol::OuePayload payload;
  payload.num_dims = kDims;
  for (std::size_t j = kDims - m; j < kDims; ++j) {
    hdldp::protocol::OuePayloadDim dim;
    dim.dimension = static_cast<std::uint32_t>(j);
    dim.cardinality = static_cast<std::uint32_t>(cardinality);
    dim.bits.assign((cardinality + 7) / 8, 0);  // content never changes size
    payload.dims.push_back(dim);
  }
  return hdldp::protocol::EncodeOuePayload(payload).value().size();
}

std::size_t OlhReportBytes(std::size_t m, std::uint32_t g) {
  hdldp::protocol::OlhPayload payload;
  payload.num_dims = kDims;
  for (std::size_t j = kDims - m; j < kDims; ++j) {
    payload.dims.push_back(
        {.dimension = static_cast<std::uint32_t>(j),
         .g = g,
         .hash_seed = 0xFFFFFFFFu,
         .value = g - 1});
  }
  return hdldp::protocol::EncodeOlhPayload(payload).value().size();
}

void RunCardinality(std::size_t users, std::size_t cardinality,
                    std::size_t repeats, hdldp::bench::JsonRecord* record) {
  const auto schema = hdldp::freq::CategoricalSchema::Create(
                          std::vector<std::size_t>(kDims, cardinality))
                          .value();
  hdldp::Rng data_rng(0xF8E0 + cardinality);
  const auto dataset =
      hdldp::freq::GenerateCategorical(users, schema, 1.2, &data_rng).value();
  std::printf("--- d=%zu categorical dims x v=%zu categories "
              "(%zu expanded entries), Zipf(1.2) ---\n",
              kDims, cardinality, schema.total_entries());
  std::printf("%-12s %8s %14s %14s %10s\n", "mechanism", "eps", "raw-MSE",
              "HDR4ME-MSE", "gain");
  for (const auto mech_name : {"laplace", "piecewise", "square_wave"}) {
    for (const double eps : {0.5, 1.0, 2.0}) {
      double raw = 0.0;
      double recal = 0.0;
      const hdldp::bench::Stopwatch cell_watch;
      // Trial-parallel repeats, reduced in trial order. Each trial also
      // streams its chunks over the shared pool (the nesting-safe
      // ParallelFor), so HDLDP_BENCH_THREADS bounds total concurrency
      // without changing any estimate.
      hdldp::framework::ExperimentRunnerOptions runner_options;
      runner_options.seed = 0xF8E000 + cardinality +
                            static_cast<std::uint64_t>(eps * 1000.0);
      runner_options.max_workers = hdldp::bench::MaxWorkers();
      hdldp::framework::ExperimentRunner runner(runner_options);
      runner.ForEachTrial(
          repeats,
          [&](const hdldp::framework::TrialContext& ctx) {
            hdldp::freq::FrequencyOptions opts;
            opts.total_epsilon = eps;
            opts.seed = ctx.seed;
            opts.num_threads = hdldp::bench::MaxWorkers();
            opts.clip_and_normalize = true;
            opts.hdr4me.regularizer = hdldp::hdr4me::Regularizer::kL1;
            const auto result =
                hdldp::freq::RunFrequencyEstimation(
                    dataset, hdldp::mech::MakeMechanism(mech_name).value(),
                    opts)
                    .value();
            return std::pair<double, double>(result.mse_raw,
                                             result.mse_recalibrated);
          },
          [&](const std::pair<double, double>& mses) {
            raw += mses.first;
            recal += mses.second;
          });
      raw /= static_cast<double>(repeats);
      recal /= static_cast<double>(repeats);
      std::printf("%-12s %8g %14.5g %14.5g %9.2fx\n", mech_name, eps, raw,
                  recal, raw / recal);
      record->NewCell();
      record->Cell("cardinality", cardinality);
      record->Cell("mechanism", std::string(mech_name));
      record->Cell("eps", eps);
      record->Cell("seconds", cell_watch.Seconds());
      record->Cell("mse_raw", raw);
      record->Cell("mse_recalibrated", recal);
    }
  }
  std::printf("\n");
}

// Sampled-path (m < d) wall-time cells: the kV2Lanes per-user layout vs
// the kV3Batched cross-user layout, single-core so the before/after
// cells are comparable across runners. m spans the small-payload regime
// the batched layout targets (m = 1: one dimension's one-hot entries per
// user) and a mid-size m; both cardinalities are recorded because the
// small-cardinality cells are overhead-bound (where batching wins most)
// while the large ones are perturbation-bound.
void RunSampledPath(std::size_t users, std::size_t repeats,
                    hdldp::bench::JsonRecord* record) {
  for (const std::size_t cardinality : {4u, 16u}) {
    const auto schema = hdldp::freq::CategoricalSchema::Create(
                            std::vector<std::size_t>(kDims, cardinality))
                            .value();
    hdldp::Rng data_rng(0xF8E0 + cardinality);
    const auto dataset =
        hdldp::freq::GenerateCategorical(users, schema, 1.2, &data_rng)
            .value();
    std::printf("--- sampled path, v=%zu categories (single core) ---\n",
                cardinality);
    std::printf("%-12s %4s %7s %12s %10s\n", "mechanism", "m", "scheme",
                "wall (s)", "raw-MSE");
    for (const auto mech_name : {"laplace", "piecewise"}) {
      for (const std::size_t m : {1u, 5u}) {
        double seconds_by_scheme[2] = {0.0, 0.0};
        for (const auto& [scheme, scheme_name] :
             {std::pair{hdldp::SeedScheme::kV2Lanes, "v2"},
              std::pair{hdldp::SeedScheme::kV3Batched, "v3"}}) {
          hdldp::freq::FrequencyOptions opts;
          opts.total_epsilon = 1.0;
          opts.report_dims = m;
          opts.seed = 0xF8E;
          opts.seed_scheme = scheme;
          opts.num_threads = 1;
          // Best-of-repeats: single runs of a few milliseconds are too
          // noisy on shared runners for before/after cells.
          double mse_raw = 0.0;
          double seconds = std::numeric_limits<double>::infinity();
          for (std::size_t r = 0; r < repeats; ++r) {
            const hdldp::bench::Stopwatch watch;
            const auto result =
                hdldp::freq::RunFrequencyEstimation(
                    dataset, hdldp::mech::MakeMechanism(mech_name).value(),
                    opts)
                    .value();
            seconds = std::min(seconds, watch.Seconds());
            mse_raw = result.mse_raw;
          }
          seconds_by_scheme[scheme == hdldp::SeedScheme::kV3Batched] =
              seconds;
          std::printf("%-12s %4zu %7s %12.5f %10.4g\n", mech_name, m,
                      scheme_name, seconds, mse_raw);
          record->NewCell();
          record->Cell("kind", std::string("freq_sampled"));
          record->Cell("cardinality", cardinality);
          record->Cell("mechanism", std::string(mech_name));
          record->Cell("report_dims", m);
          record->Cell("scheme", std::string(scheme_name));
          record->Cell("encoding", std::string("dense"));
          record->Cell("sampled", std::size_t{1});
          record->Cell("seconds", seconds);
          record->Cell("mse_raw", mse_raw);
          record->Cell("bytes_per_user", NumericFreqReportBytes(m, cardinality));
        }
        std::printf("%-12s %4zu v2/v3 speedup: %.2fx\n", mech_name, m,
                    seconds_by_scheme[0] / seconds_by_scheme[1]);
        // Frequency-oracle encodings at the same geometry: one
        // randomized categorical answer per sampled dimension instead
        // of cardinality perturbed entries, O(1) draws per dimension.
        // No value mechanism is involved, so the oracle cells pair with
        // the numeric cells of either mechanism above; emit them once.
        if (std::string(mech_name) != "laplace") continue;
        for (const auto encoding : {hdldp::protocol::ReportEncoding::kOue,
                                    hdldp::protocol::ReportEncoding::kOlh}) {
          hdldp::freq::FrequencyOptions opts;
          opts.total_epsilon = 1.0;
          opts.report_dims = m;
          opts.seed = 0xF8E;
          opts.encoding = encoding;
          opts.num_threads = 1;
          double mse_raw = 0.0;
          std::size_t bytes = 0;
          double seconds = std::numeric_limits<double>::infinity();
          for (std::size_t r = 0; r < repeats; ++r) {
            const hdldp::bench::Stopwatch watch;
            const auto result =
                hdldp::freq::RunFrequencyEstimation(dataset, nullptr, opts)
                    .value();
            seconds = std::min(seconds, watch.Seconds());
            mse_raw = result.mse_raw;
          }
          const char* encoding_name =
              hdldp::protocol::ReportEncodingName(encoding);
          if (encoding == hdldp::protocol::ReportEncoding::kOue) {
            bytes = OueReportBytes(m, cardinality);
          } else {
            const auto olh =
                hdldp::freq::OlhParams::FromEpsilon(
                    opts.total_epsilon / static_cast<double>(m))
                    .value();
            bytes = OlhReportBytes(m, olh.g);
          }
          std::printf("%-12s %4zu %7s %12.5f %10.4g %6zu B/user "
                      "(vs v3: %.2fx)\n",
                      encoding_name, m, "compact", seconds, mse_raw, bytes,
                      seconds_by_scheme[1] / seconds);
          record->NewCell();
          record->Cell("kind", std::string("freq_sampled"));
          record->Cell("cardinality", cardinality);
          record->Cell("mechanism", std::string("none"));
          record->Cell("report_dims", m);
          // Oracle draws follow the frozen "compact encodings" scalar
          // contract (common/rng_lanes.h), not a SeedScheme lane layout.
          record->Cell("scheme", std::string("compact"));
          record->Cell("encoding", std::string(encoding_name));
          record->Cell("sampled", std::size_t{1});
          record->Cell("seconds", seconds);
          record->Cell("mse_raw", mse_raw);
          record->Cell("bytes_per_user", bytes);
        }
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  hdldp::bench::PrintHeader(
      "Section V-C extension: high-dimensional frequency estimation",
      "n=100,000 users, 20 categorical dims, Zipf(1.2) categories");
  const std::size_t users = hdldp::bench::ScaledUsers(kPaperUsers);
  const std::size_t repeats = hdldp::bench::Repeats();
  hdldp::bench::JsonRecord record("bench_freq");
  record.Meta("users", users);
  record.Meta("repeats", repeats);
  const hdldp::bench::Stopwatch watch;
  for (const std::size_t cardinality : {4u, 16u}) {
    RunCardinality(users, cardinality, repeats, &record);
  }
  RunSampledPath(users, std::max<std::size_t>(repeats, 3), &record);
  const double total_seconds = watch.Seconds();
  std::printf("end-to-end wall time: %.3f s\n", total_seconds);
  // Machine-readable record (CI uploads it next to BENCH_micro.json).
  record.Meta("wall_seconds", total_seconds);
  record.WriteIfRequested();
  return 0;
}
