#include "protocol/pipeline.h"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "common/math.h"
#include "engine/chunked_estimation.h"
#include "protocol/aggregator.h"
#include "protocol/hadamard.h"
#include "protocol/metrics.h"
#include "protocol/run_control.h"

namespace hdldp {
namespace protocol {

namespace {

// The legacy kV1Scalar chunk body: one scalar stream per chunk, each
// user's report drawn in Client::ReportTo order and folded entry by entry
// (the per-dimension add order of the pre-lane-era batched loops, so the
// sums match them bit for bit). Frozen so mean estimates recorded under
// v1 seeds keep their outputs (tests/test_engine.cc pins them). `rows` is
// the chunk's row-major block from the bound source. `client` is the one
// validated instance built by RunMeanEstimation; it is copied here (a
// cheap value copy — shared mechanism pointer, prepared plan, empty
// scratch) rather than re-running Client::Create's validation per chunk.
void SimulateChunkV1(std::span<const double> rows, std::size_t num_dims,
                     const Client& client, const engine::ChunkRange& range,
                     MeanAggregator* aggregator) {
  const Client local = client;  // Own scratch buffer for this chunk.
  Rng rng(range.chunk_seed);
  for (std::size_t u = 0; u < range.num_users(); ++u) {
    local.ReportTo(rows.subspan(u * num_dims, num_dims), &rng,
                   [aggregator](std::uint32_t j, double value) {
                     aggregator->Consume(j, value);
                   });
  }
}

// The result every mean path reports, before scoring: the reduced
// aggregator's estimate and what it covers.
MeanEstimationResult MeanResult(const data::ChunkSource& source,
                                MeanReduction reduced,
                                double per_dim_epsilon) {
  MeanEstimationResult result;
  result.estimated_mean = reduced.aggregator.EstimatedMean();
  result.report_counts.reserve(source.num_dims());
  for (std::size_t j = 0; j < source.num_dims(); ++j) {
    result.report_counts.push_back(reduced.aggregator.ReportCount(j));
  }
  result.per_dim_epsilon = per_dim_epsilon;
  result.outcome = std::move(reduced.outcome);
  return result;
}

// Checkpoint digest of a mean run: everything the estimate depends on,
// thread count deliberately excluded. `variant` is the mechanism name or
// the compact encoding's.
RunDigest MeanDigest(std::string_view variant, const PipelineOptions& options,
                     std::size_t m, const data::ChunkSource& source) {
  RunDigest digest;
  digest.AddString("mean");
  digest.AddString(variant);
  digest.AddF64(options.total_epsilon);
  digest.AddU64(m);
  digest.AddU64(options.seed);
  digest.AddU64(static_cast<std::uint64_t>(options.seed_scheme));
  digest.AddU64(source.num_users());
  digest.AddU64(source.num_dims());
  digest.AddU64(options.allow_missing_chunks ? 1 : 0);
  return digest;
}

// The Hadamard 1-bit mean path: one randomized sign bit per user at the
// full eps, decoded unbiasedly by Hadamard1Decode (the service codec's
// decode) and folded through ConsumeReport.
// Draw layout (the "compact encodings" stream contract in
// common/rng_lanes.h): one scalar stream per chunk, per user a Floyd
// m-of-d sample sorted ascending, then the Hadamard1Encode draws (row
// index, sign coin). Decoded values are already in the data domain, so
// the aggregator runs with an identity map.
Result<MeanEstimationResult> RunHadamard1Estimation(
    const data::ChunkSource& source, const PipelineOptions& options,
    data::ChunkPartials<NeumaierColumns>* truth) {
  const std::size_t d = source.num_dims();
  const std::size_t m = options.report_dims == 0 ? d : options.report_dims;
  HDLDP_ASSIGN_OR_RETURN(
      const Hadamard1Params params,
      Hadamard1Params::Create(d, m, options.total_epsilon));
  const engine::ChunkedEstimation core(source, options, options.num_threads,
                                       truth);
  HDLDP_ASSIGN_OR_RETURN(
      MeanReduction reduced,
      ReduceMeanChunks(
          core, MeanDigest("hadamard1", options, m, source), d,
          mech::DomainMap(),
          [&](const engine::ChunkRange& range,
              MeanAggregator* scratch) -> Status {
            HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                                   core.ChunkRows(range));
            Rng rng(range.chunk_seed);
            std::vector<std::uint32_t> sampled;
            std::vector<double> values(m);
            UserReport decoded;
            for (std::size_t i = range.begin; i < range.end; ++i) {
              const double* row = rows.data() + (i - range.begin) * d;
              sampled.clear();
              rng.SampleWithoutReplacement(d, m, &sampled);
              std::sort(sampled.begin(), sampled.end());
              for (std::size_t pos = 0; pos < m; ++pos) {
                values[pos] = row[sampled[pos]];
              }
              const Hadamard1Report report =
                  Hadamard1Encode(params, values, &rng);
              HDLDP_RETURN_NOT_OK(Hadamard1Decode(
                  params, sampled, report.index, report.positive, &decoded));
              HDLDP_RETURN_NOT_OK(scratch->ConsumeReport(decoded));
            }
            return Status::OK();
          }));
  // The single bit spends the whole budget; there is no per-dimension
  // split to report.
  return MeanResult(source, std::move(reduced), options.total_epsilon);
}

// EstimateMean, leaving the column sums of every chunk the estimate pass
// pulls in `truth`'s slots when it is non-null.
Result<MeanEstimationResult> EstimateMeanFolding(
    const data::ChunkSource& source, mech::MechanismPtr mechanism,
    const PipelineOptions& options,
    data::ChunkPartials<NeumaierColumns>* truth) {
  HDLDP_RETURN_NOT_OK(
      ValidateRunControl(options, options.encoding, Workload::kMean));
  if (options.encoding == ReportEncoding::kHadamard1) {
    return RunHadamard1Estimation(source, options, truth);
  }
  ClientOptions client_options;
  client_options.total_epsilon = options.total_epsilon;
  client_options.report_dims = options.report_dims;
  HDLDP_ASSIGN_OR_RETURN(
      const Client client,
      Client::Create(std::move(mechanism), source.num_dims(),
                     client_options));
  const std::size_t d = source.num_dims();
  const std::size_t m = client.report_dims();
  const mech::DomainMap map = client.domain_map();
  const mech::SamplerPlan& plan = client.plan();
  const engine::ChunkedEstimation core(source, options, options.num_threads,
                                       truth);

  // The whole orchestration — chunk geometry, (seed, chunk, lane) stream
  // seeding, plan dispatch, deterministic two-level reduction,
  // checkpointing — lives in the engine and ReduceMeanChunks; the lambdas
  // below only say what a user row looks like in the mechanism's native
  // domain. Each chunk body pulls its rows once up front (worker-local
  // buffer, one chunk resident per worker).
  HDLDP_ASSIGN_OR_RETURN(
      MeanReduction reduced,
      ReduceMeanChunks(
          core, MeanDigest(client.mechanism().Name(), options, m, source), d,
          map,
          [&](const engine::ChunkRange& range,
              MeanAggregator* scratch) -> Status {
            HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                                   core.ChunkRows(range));
            if (options.seed_scheme == SeedScheme::kV1Scalar) {
              SimulateChunkV1(rows, d, client, range, scratch);
              return Status::OK();
            }
            if (m == d) {
              // Dense fast path: whole tuples map onto native rows.
              return core.PerturbDenseChunk(
                  plan, range, d, 0.0, scratch,
                  [&](std::size_t user, std::size_t block,
                      std::span<double> natives) {
                    const std::span<const double> block_rows = rows.subspan(
                        (user - range.begin) * d, block * d);
                    for (std::size_t k = 0; k < block_rows.size(); ++k) {
                      natives[k] = map.Forward(block_rows[k]);
                    }
                  });
            }
            // Sampled path: each sampled dimension contributes one
            // entry, bulk-appended per user (v3 batches many users'
            // entries into each lane span; v2 keeps one span per user —
            // the engine driver dispatches).
            return core.PerturbSampledChunk(
                plan, range, d, m, scratch,
                [&](std::size_t user, std::span<const std::uint32_t> dims,
                    std::vector<std::uint32_t>* entry_indices,
                    std::vector<double>* natives) {
                  entry_indices->insert(entry_indices->end(), dims.begin(),
                                        dims.end());
                  const std::size_t base = natives->size();
                  natives->resize(base + dims.size());
                  double* out = natives->data() + base;
                  const std::span<const double> row =
                      rows.subspan((user - range.begin) * d, d);
                  for (std::size_t k = 0; k < dims.size(); ++k) {
                    out[k] = map.Forward(row[dims[k]]);
                  }
                });
          }));
  return MeanResult(source, std::move(reduced), client.PerDimensionEpsilon());
}

}  // namespace

Result<MeanEstimationResult> EstimateMean(const data::ChunkSource& source,
                                          mech::MechanismPtr mechanism,
                                          const PipelineOptions& options) {
  return EstimateMeanFolding(source, std::move(mechanism), options, nullptr);
}

Result<MeanEstimationResult> RunMeanEstimation(const data::ChunkSource& source,
                                               mech::MechanismPtr mechanism,
                                               const PipelineOptions& options) {
  // Score against the users the estimate covers: the surviving chunks'
  // column sums merged in chunk order (data::SurvivingMean). A source that
  // owns its truth keeps no sums and answers for the whole population
  // itself, through whatever memo it keeps; over any other source each
  // worker leaves the sums of the chunks it pulled. Either way
  // SurvivingMean pulls the chunks it holds no sums for, under the run's
  // retry policy — with no sums kept, every surviving chunk.
  const bool owns_truth = source.OwnsTrueMean();
  data::ChunkPartials<NeumaierColumns> truth(source.num_chunks());
  HDLDP_ASSIGN_OR_RETURN(
      MeanEstimationResult result,
      EstimateMeanFolding(source, std::move(mechanism), options,
                          owns_truth ? nullptr : &truth));
  if (owns_truth && result.outcome.quarantined_chunks.empty()) {
    HDLDP_ASSIGN_OR_RETURN(result.true_mean, source.TrueMean());
  } else {
    HDLDP_ASSIGN_OR_RETURN(
        result.true_mean,
        data::SurvivingMean(source, result.outcome.quarantined_chunks,
                            options.retry, std::move(truth)));
  }
  HDLDP_ASSIGN_OR_RETURN(
      result.mse, MeanSquaredError(result.estimated_mean, result.true_mean));
  return result;
}

Result<MeanEstimationResult> RunMeanEstimation(const data::Dataset& dataset,
                                               mech::MechanismPtr mechanism,
                                               const PipelineOptions& options) {
  const data::ResidentChunkSource source(&dataset);
  return RunMeanEstimation(source, std::move(mechanism), options);
}

Result<SingleDimensionResult> RunSingleDimension(
    std::span<const double> values, const mech::Mechanism& mechanism,
    double per_dim_epsilon, double inclusion_prob, Rng* rng) {
  if (values.empty()) {
    return Status::InvalidArgument("RunSingleDimension requires users");
  }
  if (!(inclusion_prob > 0.0 && inclusion_prob <= 1.0)) {
    return Status::InvalidArgument(
        "RunSingleDimension requires inclusion_prob in (0, 1]");
  }
  HDLDP_RETURN_NOT_OK(mechanism.ValidateBudget(per_dim_epsilon));
  HDLDP_ASSIGN_OR_RETURN(
      const mech::DomainMap map,
      mech::DomainMap::Between({-1.0, 1.0}, mechanism.InputDomain()));
  // One prepared plan for the whole pass; one visit resolves the variant
  // outside the per-user loop.
  const mech::SamplerPlan plan = mechanism.MakePlan(per_dim_epsilon);
  NeumaierSum sum;
  std::int64_t count = 0;
  std::visit(
      [&](const auto& p) {
        for (const double t : values) {
          if (!rng->Bernoulli(inclusion_prob)) continue;
          sum.Add(p(map.Forward(t), rng));
          ++count;
        }
      },
      plan);
  SingleDimensionResult result;
  result.report_count = count;
  result.estimated_mean =
      count == 0 ? 0.0 : map.Backward(sum.Total() / static_cast<double>(count));
  return result;
}

}  // namespace protocol
}  // namespace hdldp
