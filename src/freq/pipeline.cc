#include "freq/pipeline.h"

#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/math.h"
#include "common/rng.h"
#include "engine/chunked_estimation.h"
#include "framework/deviation_model.h"
#include "mech/plan.h"
#include "protocol/aggregator.h"
#include "protocol/budget.h"
#include "protocol/metrics.h"
#include "protocol/run_control.h"

namespace hdldp {
namespace freq {

namespace {

// Flattens per-dimension frequency vectors into the expanded entry space.
std::vector<double> Flatten(const std::vector<std::vector<double>>& nested) {
  std::vector<double> flat;
  for (const auto& v : nested) flat.insert(flat.end(), v.begin(), v.end());
  return flat;
}

// Splits a flat entry vector back into per-dimension vectors.
std::vector<std::vector<double>> Unflatten(const std::vector<double>& flat,
                                           const CategoricalSchema& schema) {
  std::vector<std::vector<double>> nested(schema.num_dims());
  for (std::size_t j = 0; j < schema.num_dims(); ++j) {
    const std::size_t off = schema.EntryOffset(j);
    nested[j].assign(flat.begin() + static_cast<std::ptrdiff_t>(off),
                     flat.begin() + static_cast<std::ptrdiff_t>(
                                        off + schema.Cardinality(j)));
  }
  return nested;
}

// Clips to [0, 1] and renormalizes each dimension to total mass 1.
void ClipAndNormalize(const CategoricalSchema& schema,
                      std::vector<std::vector<double>>* freqs) {
  for (std::size_t j = 0; j < schema.num_dims(); ++j) {
    auto& f = (*freqs)[j];
    double total = 0.0;
    for (double& v : f) {
      v = Clamp(v, 0.0, 1.0);
      total += v;
    }
    if (total > 0.0) {
      for (double& v : f) v /= total;
    } else {
      // Degenerate: fall back to uniform.
      const double uniform = 1.0 / static_cast<double>(f.size());
      for (double& v : f) v = uniform;
    }
  }
}

// Exact per-entry category counts of some chunks' users: the ground
// truth's chunk partial (data::ChunkPartials). Merging is an integer
// add, so the counts are the same in every merge order.
struct CategoryCounts {
  std::vector<std::int64_t> counts;

  void MergeState(const CategoryCounts& other) {
    for (std::size_t k = 0; k < counts.size(); ++k) {
      counts[k] += other.counts[k];
    }
  }
};

// Counts one chunk's source rows, checking every value against the
// schema first: it must be an exact non-negative integer below its
// dimension's cardinality. Streaming sources (shards, generators)
// deliver doubles, and a bad value would otherwise index out of the
// one-hot layout or a count table. Every estimate body counts the rows
// it pulled, and a top-up pull is counted (so checked) again, never
// trusted to match an earlier one.
Result<CategoryCounts> CountCategories(std::span<const double> rows,
                                       const CategoricalSchema& schema,
                                       std::size_t chunk) {
  const std::size_t d = schema.num_dims();
  const std::size_t users = rows.size() / d;
  CategoryCounts out;
  out.counts.assign(schema.total_entries(), 0);
  for (std::size_t i = 0; i < users; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      const double v = rows[i * d + j];
      if (!(v >= 0.0) || v != std::floor(v) ||
          v >= static_cast<double>(schema.Cardinality(j))) {
        return Status::InvalidArgument(
            "categorical source chunk " + std::to_string(chunk) +
            " holds an invalid category index in dimension " +
            std::to_string(j));
      }
      ++out.counts[schema.EntryOffset(j) + static_cast<std::size_t>(v)];
    }
  }
  return out;
}

// The pull every estimate body starts with: the chunk's rows, counted
// (so checked) into the chunk's `truth` slot.
Result<std::span<const double>> PullAndCount(
    const engine::ChunkedEstimation& core, const CategoricalSchema& schema,
    const engine::ChunkRange& range,
    data::ChunkPartials<CategoryCounts>* truth) {
  HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                         core.ChunkRows(range));
  HDLDP_ASSIGN_OR_RETURN(CategoryCounts counts,
                         CountCategories(rows, schema, range.chunk));
  truth->Set(range.chunk, std::move(counts));
  return rows;
}

// Ground-truth frequencies over the users the estimate covers, as the
// run's `outcome` names them: the counts `truth` holds of every chunk
// outside its quarantine, merged, with each surviving chunk no estimate
// body counted — one a resumed run took from its checkpoint — pulled
// under `retry` and counted now. Counts are exact integers in every
// merge order, as are CategoricalDataset::TrueFrequencies' `+= 1.0` sums
// below 2^53, so count / n reproduces its bits from any source at any
// thread count.
Result<std::vector<std::vector<double>>> SurvivingFrequencies(
    const data::ChunkSource& source, const CategoricalSchema& schema,
    const data::ChunkPartials<CategoryCounts>& truth,
    const engine::RunOutcome& outcome, const data::RetryPolicy& retry) {
  CategoryCounts zero;
  zero.counts.assign(schema.total_entries(), 0);
  HDLDP_ASSIGN_OR_RETURN(
      const CategoryCounts total,
      truth.Finish(source, outcome.quarantined_chunks, retry, std::move(zero),
                   [&](std::size_t c, std::span<const double> rows) {
                     return CountCategories(rows, schema, c);
                   }));
  const auto n = static_cast<double>(outcome.surviving_users);
  std::vector<double> flat(total.counts.size());
  for (std::size_t k = 0; k < flat.size(); ++k) {
    flat[k] = static_cast<double>(total.counts[k]) / n;
  }
  return Unflatten(flat, schema);
}

// Every HDR4ME deviation model below divides by r_j, the report count of
// dimension j's first entry (each report of j folds all of its entries);
// `model` names the one that is undefined when a dimension received none.
Status RequireReports(const protocol::MeanAggregator& acc,
                      const CategoricalSchema& schema, const char* model) {
  for (std::size_t j = 0; j < schema.num_dims(); ++j) {
    if (acc.ReportCount(schema.EntryOffset(j)) == 0) {
      return Status::FailedPrecondition(
          "categorical dimension " + std::to_string(j) +
          " received no reports; " + model +
          " undefined at r = 0 (raise num_users or report_dims)");
    }
  }
  return Status::OK();
}

// The checkpoint digest of a frequency run: everything its estimates
// depend on (thread count excluded). `variant` is the mechanism name of
// a numeric run and the encoding name of an oracle run.
protocol::RunDigest FreqDigest(std::string_view variant,
                               const data::ChunkSource& source,
                               const CategoricalSchema& schema,
                               const FrequencyOptions& options,
                               std::size_t m) {
  protocol::RunDigest digest;
  digest.AddString("freq");
  digest.AddString(variant);
  digest.AddF64(options.total_epsilon);
  digest.AddU64(m);
  digest.AddU64(options.seed);
  digest.AddU64(static_cast<std::uint64_t>(options.seed_scheme));
  digest.AddU64(source.num_users());
  digest.AddU64(schema.num_dims());
  digest.AddU64(schema.total_entries());
  for (std::size_t j = 0; j < schema.num_dims(); ++j) {
    digest.AddU64(schema.Cardinality(j));
  }
  digest.AddU64(options.allow_missing_chunks ? 1 : 0);
  return digest;
}

// The legacy kV1Scalar ingestion loop: one scalar stream, per-entry
// draws in exactly the pre-lane-era order — chunks are pulled in order
// and walked serially, so the draw sequence matches the old
// whole-dataset loop user for user, each entry one draw of the plan's
// scalar body folded by Consume. Frozen so runs recorded under v1 seeds
// keep their outputs bit for bit. Each chunk's category counts land in
// `truth`.
Result<protocol::MeanReduction> IngestV1Scalar(
    const engine::ChunkedEstimation& core, const CategoricalSchema& schema,
    const mech::SamplerPlan& plan, const mech::DomainMap& map, std::size_t m,
    data::ChunkPartials<CategoryCounts>* truth) {
  const std::size_t d = schema.num_dims();
  HDLDP_ASSIGN_OR_RETURN(
      protocol::MeanAggregator acc,
      protocol::MeanAggregator::Create(schema.total_entries(), map));
  Rng rng(core.control().seed);
  std::vector<std::uint32_t> sampled;
  for (std::size_t c = 0; c < core.num_chunks(); ++c) {
    const engine::ChunkRange range = core.Range(c);
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           PullAndCount(core, schema, range, truth));
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const double* row = rows.data() + (i - range.begin) * d;
      sampled.clear();
      rng.SampleWithoutReplacement(d, m, &sampled);
      for (const std::uint32_t j : sampled) {
        const auto off = static_cast<std::uint32_t>(schema.EntryOffset(j));
        const auto category = static_cast<std::uint32_t>(row[j]);
        for (std::uint32_t k = 0; k < schema.Cardinality(j); ++k) {
          const double entry = k == category ? 1.0 : 0.0;
          acc.Consume(off + k,
                      mech::PerturbOne(plan, map.Forward(entry), &rng));
        }
      }
    }
  }
  return protocol::MeanReduction{std::move(acc),
                                 {{}, core.num_users(), false}};
}

}  // namespace

Result<FrequencyEstimationResult> RunFrequencyEstimation(
    const data::ChunkSource& source, const CategoricalSchema& schema,
    mech::MechanismPtr mechanism, const FrequencyOptions& options) {
  HDLDP_RETURN_NOT_OK(protocol::ValidateRunControl(
      options, options.encoding, protocol::Workload::kFrequency));
  const bool oracle = options.encoding == protocol::ReportEncoding::kOue ||
                      options.encoding == protocol::ReportEncoding::kOlh;
  if (mechanism == nullptr && !oracle) {
    return Status::InvalidArgument("frequency estimation requires a mechanism");
  }
  if (source.num_dims() != schema.num_dims()) {
    return Status::InvalidArgument(
        "categorical source width does not match schema");
  }
  const std::size_t d = schema.num_dims();
  const std::size_t m = options.report_dims == 0 ? d : options.report_dims;
  if (m > d) {
    return Status::InvalidArgument("report_dims exceeds categorical dims");
  }
  const std::size_t total_entries = schema.total_entries();
  const engine::ChunkedEstimation core(source, options, options.num_threads);
  data::ChunkPartials<CategoryCounts> truth(source.num_chunks());
  // Encoded entries live in [0, 1].
  const mech::Interval entry_domain{0.0, 1.0};
  FrequencyEstimationResult result;
  // Every run folds each reported entry into one MeanAggregator over the
  // expanded entry space; the paths differ only in what they fold.
  std::optional<protocol::MeanReduction> reduced;
  // Bernoulli/randomized-response success probability and baseline of
  // an oracle's support indicator: p-tilde for the true category,
  // q-tilde otherwise.
  double p_tilde = 0.0;
  double q_tilde = 0.0;

  if (oracle) {
    // The oracle randomizes a whole sampled dimension's answer as one
    // eps/m-LDP unit, so m of them compose to eps per user.
    const double per_dim_eps = options.total_epsilon / static_cast<double>(m);
    result.per_entry_epsilon = per_dim_eps;
    const bool use_oue = options.encoding == protocol::ReportEncoding::kOue;
    OueParams oue;
    OlhParams olh;
    if (use_oue) {
      HDLDP_ASSIGN_OR_RETURN(oue, OueParams::FromEpsilon(per_dim_eps));
    } else {
      HDLDP_ASSIGN_OR_RETURN(olh, OlhParams::FromEpsilon(per_dim_eps));
    }
    p_tilde = use_oue ? oue.p : olh.p;
    q_tilde = use_oue ? oue.q : 1.0 / static_cast<double>(olh.g);
    // Draw layout (the "compact encodings" stream contract in
    // common/rng_lanes.h): one scalar stream per chunk, per user a Floyd
    // m-of-d sample walked in draw order, then per sampled dimension one
    // OueEncodeDim / OlhEncodeDim call (freq/encoding.h), so the wire
    // encoders and this simulation share one frozen layout. A chunk
    // tallies each entry's support count and each dimension's report
    // count in integers, then folds each entry once under the identity
    // map: every partial sum is an integer below 2^53, so every add and
    // merge is exact, the fold equals one Consume per 0/1 indicator bit
    // for bit, and EstimatedMean is count / r.
    HDLDP_ASSIGN_OR_RETURN(
        reduced,
        protocol::ReduceMeanChunks(
            core,
            FreqDigest(protocol::ReportEncodingName(options.encoding), source,
                       schema, options, m),
            total_entries, mech::DomainMap(),
            [&](const engine::ChunkRange& range,
                protocol::MeanAggregator* scratch) -> Status {
              HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                                     PullAndCount(core, schema, range, &truth));
              Rng rng(range.chunk_seed);
              std::vector<std::uint32_t> sampled;
              std::vector<std::uint8_t> bits;
              std::vector<std::int64_t> support(total_entries, 0);
              std::vector<std::int64_t> reports(d, 0);
              for (std::size_t i = range.begin; i < range.end; ++i) {
                const double* row = rows.data() + (i - range.begin) * d;
                sampled.clear();
                rng.SampleWithoutReplacement(d, m, &sampled);
                for (const std::uint32_t j : sampled) {
                  std::int64_t* counts = support.data() + schema.EntryOffset(j);
                  const std::size_t v = schema.Cardinality(j);
                  const auto category = static_cast<std::uint32_t>(row[j]);
                  ++reports[j];
                  if (use_oue) {
                    OueEncodeDim(oue, category, v, &rng, &bits);
                    for (std::uint32_t k = 0; k < v; ++k) {
                      counts[k] += (bits[k >> 3] >> (k & 7)) & 1;
                    }
                  } else {
                    const OlhDimReport report =
                        OlhEncodeDim(olh, category, &rng);
                    const OlhHasher hasher(report.hash_seed);
                    for (std::uint32_t k = 0; k < v; ++k) {
                      counts[k] += hasher.Bucket(k, olh.g) == report.value;
                    }
                  }
                }
              }
              for (std::size_t j = 0; j < d; ++j) {
                if (reports[j] == 0) continue;
                const std::size_t off = schema.EntryOffset(j);
                for (std::size_t k = 0; k < schema.Cardinality(j); ++k) {
                  scratch->ConsumeSum(static_cast<std::uint32_t>(off + k),
                                      static_cast<double>(support[off + k]),
                                      reports[j]);
                }
              }
              return Status::OK();
            }));
  } else {
    // [37]: a one-hot dimension has L1 sensitivity 2, so eps/(2m) per
    // entry composes to eps over a report.
    HDLDP_ASSIGN_OR_RETURN(result.per_entry_epsilon,
                           protocol::BudgetAccountant::PerEntryBudget(
                               options.total_epsilon, m));
    HDLDP_RETURN_NOT_OK(mechanism->ValidateBudget(result.per_entry_epsilon));
    // Map the entry domain onto the mechanism's native domain.
    HDLDP_ASSIGN_OR_RETURN(
        const mech::DomainMap map,
        mech::DomainMap::Between(entry_domain, mechanism->InputDomain()));
    const mech::SamplerPlan plan =
        mechanism->MakePlan(result.per_entry_epsilon);
    if (options.seed_scheme == SeedScheme::kV1Scalar) {
      HDLDP_ASSIGN_OR_RETURN(
          reduced, IngestV1Scalar(core, schema, plan, map, m, &truth));
    } else {
      // kV2Lanes / kV3Batched: the engine owns chunk geometry, (seed,
      // chunk, lane) stream seeding, plan dispatch (including the v3
      // cross-user sampled batching) and the deterministic reduction
      // tree, ReduceMeanChunks the checkpointing; the lambdas below only
      // define the one-hot encoding of a user row.
      const double native_zero = map.Forward(0.0);
      const double native_one = map.Forward(1.0);
      HDLDP_ASSIGN_OR_RETURN(
          reduced,
          protocol::ReduceMeanChunks(
              core, FreqDigest(mechanism->Name(), source, schema, options, m),
              total_entries, map,
              [&](const engine::ChunkRange& range,
                  protocol::MeanAggregator* scratch) -> Status {
                HDLDP_ASSIGN_OR_RETURN(
                    const std::span<const double> rows,
                    PullAndCount(core, schema, range, &truth));
                const auto category_at = [&](std::size_t user,
                                             std::size_t j) {
                  return static_cast<std::uint32_t>(
                      rows[(user - range.begin) * d + j]);
                };
                if (m == d) {
                  // Dense one-hot fill: the block buffer arrives at
                  // native_zero; set each user's d category entries and
                  // un-set the previous block's — far cheaper than
                  // refilling the whole buffer per block.
                  std::size_t prev_user = 0;
                  std::size_t prev_block = 0;
                  const auto paint = [&](std::size_t user, std::size_t block,
                                         std::span<double> natives,
                                         double value) {
                    for (std::size_t u = 0; u < block; ++u) {
                      double* row = natives.data() + u * total_entries;
                      for (std::size_t j = 0; j < d; ++j) {
                        row[schema.EntryOffset(j) + category_at(user + u, j)] =
                            value;
                      }
                    }
                  };
                  return core.PerturbDenseChunk(
                      plan, range, total_entries, native_zero, scratch,
                      [&](std::size_t user, std::size_t block,
                          std::span<double> natives) {
                        paint(prev_user, prev_block, natives, native_zero);
                        paint(user, block, natives, native_one);
                        prev_user = user;
                        prev_block = block;
                      });
                }
                // Sampled path: each sampled dimension expands into its
                // Cardinality(j) one-hot entries, appended as bulk runs
                // (resize-fill plus a single category write per
                // dimension) instead of per-entry push_backs — identical
                // contents, so v2 outputs are unchanged and v3 blocks
                // fill faster.
                return core.PerturbSampledChunk(
                    plan, range, d, m, scratch,
                    [&](std::size_t user, std::span<const std::uint32_t> dims,
                        std::vector<std::uint32_t>* entry_indices,
                        std::vector<double>* natives) {
                      std::size_t total = 0;
                      for (const std::uint32_t j : dims) {
                        total += schema.Cardinality(j);
                      }
                      std::size_t base = natives->size();
                      natives->resize(base + total, native_zero);
                      entry_indices->resize(base + total);
                      for (const std::uint32_t j : dims) {
                        const std::size_t off = schema.EntryOffset(j);
                        const std::size_t cardinality = schema.Cardinality(j);
                        (*natives)[base + category_at(user, j)] = native_one;
                        std::uint32_t* idx = entry_indices->data() + base;
                        for (std::size_t k = 0; k < cardinality; ++k) {
                          idx[k] = static_cast<std::uint32_t>(off + k);
                        }
                        base += cardinality;
                      }
                    });
              }));
    }
  }

  // The naive per-entry average: under the numeric paths' map, exactly
  // the per-entry Backward(sum / r); an oracle decodes it in place below.
  const protocol::MeanAggregator& acc = reduced->aggregator;
  HDLDP_RETURN_NOT_OK(RequireReports(
      acc, schema,
      oracle ? "the oracle estimator is"
             : "the Lemma 3 re-calibration model is"));
  std::vector<double> raw_flat = acc.EstimatedMean();
  // HDR4ME's deviation model per entry, at the (clamped) raw estimate f.
  // An oracle's support count of entry k is Binomial(r, p_k) with p_k =
  // f*p-tilde + (1-f)*q-tilde, so the unbiased estimator (count/r -
  // q-tilde)/(p-tilde - q-tilde) has stddev sqrt(p_k (1 - p_k) / r) /
  // (p-tilde - q-tilde). A numeric entry's original values are
  // Bernoulli(f), plugged into the Lemma 3 value distribution; the
  // per-atom mechanism moments are shared by every entry (the support is
  // always {0, 1} at one eps), so DeviationModelBuilder evaluates them
  // once instead of per entry — bit-identical to per-entry
  // ModelDeviation calls.
  static constexpr double kOneHotSupport[2] = {0.0, 1.0};
  std::optional<framework::DeviationModelBuilder> model_builder;
  if (!oracle) {
    HDLDP_ASSIGN_OR_RETURN(
        model_builder, framework::DeviationModelBuilder::Create(
                           *mechanism, result.per_entry_epsilon,
                           kOneHotSupport, entry_domain));
  }
  const double gain = p_tilde - q_tilde;
  std::vector<framework::GaussianDeviation> deviations;
  deviations.reserve(total_entries);
  for (std::size_t j = 0; j < d; ++j) {
    const std::size_t off = schema.EntryOffset(j);
    const auto r = static_cast<double>(acc.ReportCount(off));
    for (std::size_t k = off; k < off + schema.Cardinality(j); ++k) {
      if (oracle) raw_flat[k] = (raw_flat[k] - q_tilde) / gain;
      const double f = Clamp(raw_flat[k], 0.0, 1.0);
      if (oracle) {
        const double p_k = f * p_tilde + (1.0 - f) * q_tilde;
        deviations.push_back({0.0, std::sqrt(p_k * (1.0 - p_k) / r) / gain});
        continue;
      }
      const double probs[2] = {1.0 - f, f};
      HDLDP_ASSIGN_OR_RETURN(const framework::DeviationModel model,
                             model_builder->Model(probs, r));
      deviations.push_back(model.deviation);
    }
  }

  HDLDP_ASSIGN_OR_RETURN(
      const hdr4me::RecalibrationResult recal,
      hdr4me::Recalibrate(raw_flat, deviations, options.hdr4me));
  result.outcome = std::move(reduced->outcome);
  HDLDP_ASSIGN_OR_RETURN(
      result.true_frequencies,
      SurvivingFrequencies(source, schema, truth, result.outcome,
                           options.retry));
  result.raw = Unflatten(raw_flat, schema);
  result.recalibrated = Unflatten(recal.enhanced_mean, schema);
  if (options.clip_and_normalize) {
    ClipAndNormalize(schema, &result.raw);
    ClipAndNormalize(schema, &result.recalibrated);
  }
  const std::vector<double> truth_flat = Flatten(result.true_frequencies);
  HDLDP_ASSIGN_OR_RETURN(
      result.mse_raw,
      protocol::MeanSquaredError(Flatten(result.raw), truth_flat));
  HDLDP_ASSIGN_OR_RETURN(
      result.mse_recalibrated,
      protocol::MeanSquaredError(Flatten(result.recalibrated), truth_flat));
  return result;
}

Result<FrequencyEstimationResult> RunFrequencyEstimation(
    const CategoricalDataset& dataset, mech::MechanismPtr mechanism,
    const FrequencyOptions& options) {
  const CategoricalChunkSource source(&dataset);
  return RunFrequencyEstimation(source, dataset.schema(),
                                std::move(mechanism), options);
}

}  // namespace freq
}  // namespace hdldp
