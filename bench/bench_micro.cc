// Micro-benchmarks (google-benchmark): per-report perturbation throughput
// of every mechanism, collector aggregation, HDR4ME re-calibration, and
// the framework's model construction. These bound the cost of running the
// paper's protocol at population scale.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/rng_lanes.h"
#include "engine/chunked_estimation.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "hdr4me/recalibrate.h"
#include "common/math.h"
#include "mech/plan.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"
#include "protocol/client.h"

namespace {

// Per-value throughput of a prepared sampler plan's scalar body (the
// kV1Scalar / Client::ReportTo sampler), one PerturbOne call per value.
void BM_PerturbPlan(benchmark::State& state, const char* name, double eps) {
  const auto mechanism = hdldp::mech::MakeMechanism(name).value();
  const hdldp::mech::SamplerPlan plan = mechanism->MakePlan(eps);
  hdldp::Rng rng(42);
  double t = -1.0;
  for (auto _ : state) {
    t += 0.001;
    if (t > 1.0) t = -1.0;
    const double native =
        mechanism->InputDomain().lo == 0.0 ? 0.5 * (t + 1.0) : t;
    benchmark::DoNotOptimize(hdldp::mech::PerturbOne(plan, native, &rng));
  }
  state.SetItemsProcessed(state.iterations());
}

// Lane-parallel sampling throughput: the same prepared plan driven by
// the 4-wide lane generator (v2 stream contract) over a resident span.
// The ratio to BM_PerturbPlan is the per-mechanism lane speedup tracked
// in BENCH_micro.json. The hybrid rows also pin the shared-round draw
// layout (2 lane rounds per value instead of the original 3; the mixture
// coin doubles as the component coin via threshold folding) — a
// regression back to 3 rounds shows up here as a ~25% throughput drop.
void BM_PerturbLanes(benchmark::State& state, const char* name, double eps) {
  const auto mechanism = hdldp::mech::MakeMechanism(name).value();
  const hdldp::mech::SamplerPlan plan = mechanism->MakePlan(eps);
  hdldp::RngLanes lanes(42);
  constexpr std::size_t kSpan = 4096;
  std::vector<double> ts(kSpan);
  const double lo = mechanism->InputDomain().lo;
  for (std::size_t i = 0; i < kSpan; ++i) {
    const double t = -1.0 + 2.0 * static_cast<double>(i) / (kSpan - 1);
    ts[i] = lo == 0.0 ? 0.5 * (t + 1.0) : t;
  }
  std::vector<double> out(kSpan);
  for (auto _ : state) {
    hdldp::mech::PerturbLanes(plan, ts, &lanes, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSpan);
}

// Dimension-sampling throughput: scalar Floyd (one SampleWithoutReplacement
// call per user, O(m) suffix-probe per draw) vs the chunk-granular batched
// sampler (bitmask membership probe + sorted bit-walk emission, the v3
// sampled driver's front end). Items are sampled dimensions, so items/s
// ratios are the batched-sampler speedup per (d, m) shape.
void BM_SampleDims(benchmark::State& state, bool batched, std::size_t d,
                   std::size_t m) {
  hdldp::Rng rng(9);
  hdldp::BatchSamplerScratch scratch;
  std::vector<std::uint32_t> out;
  constexpr std::size_t kUsers = 512;
  for (auto _ : state) {
    out.clear();
    if (batched) {
      rng.SampleWithoutReplacementBatch(d, m, kUsers, /*sorted=*/true,
                                        &scratch, &out);
    } else {
      for (std::size_t u = 0; u < kUsers; ++u) {
        rng.SampleWithoutReplacement(d, m, &out);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kUsers * m);
}

// Sampled-path ingestion through the real engine driver: one 4096-user
// chunk of a mean-style workload (each sampled dimension expands to one
// gathered entry), v2's per-user lane spans vs v3's cross-user batched
// blocks. The v2-vs-v3 ratio per (mechanism, m) is the batched-stream
// speedup tracked in BENCH_micro.json.
void BM_IngestSampled(benchmark::State& state, const char* name,
                      hdldp::SeedScheme scheme, std::size_t m) {
  constexpr std::size_t kDims = 512;
  constexpr std::size_t kUsers = 4096;  // One engine chunk.
  const auto mechanism = hdldp::mech::MakeMechanism(name).value();
  const auto map =
      hdldp::mech::DomainMap::Between({-1.0, 1.0}, mechanism->InputDomain())
          .value();
  const hdldp::mech::SamplerPlan plan =
      mechanism->MakePlan(1.0 / static_cast<double>(m));
  hdldp::Rng data_rng(7);
  std::vector<double> values(kUsers * kDims);
  for (double& v : values) v = data_rng.Uniform(-1.0, 1.0);
  const auto dataset =
      hdldp::data::Dataset::Adopt(kUsers, kDims, std::move(values)).value();
  const hdldp::data::ResidentChunkSource source(&dataset);
  const double* tuples = dataset.Rows(0, kUsers).data();
  hdldp::engine::RunControl control;
  control.seed = 1;
  control.seed_scheme = scheme;
  const hdldp::engine::ChunkedEstimation core(source, control, 1);
  const hdldp::engine::ChunkRange range = core.Range(0);
  auto agg = hdldp::protocol::MeanAggregator::Create(kDims, map).value();
  for (auto _ : state) {
    agg.Reset();
    const auto status = core.PerturbSampledChunk(
        plan, range, kDims, m, &agg,
        [&](std::size_t user, std::span<const std::uint32_t> dims,
            std::vector<std::uint32_t>* entry_indices,
            std::vector<double>* natives) {
          entry_indices->insert(entry_indices->end(), dims.begin(),
                                dims.end());
          const std::size_t base = natives->size();
          natives->resize(base + dims.size());
          double* out = natives->data() + base;
          const double* row = tuples + user * kDims;
          for (std::size_t k = 0; k < dims.size(); ++k) {
            out[k] = map.Forward(row[dims[k]]);
          }
        });
    if (!status.ok()) {
      state.SkipWithError("sampled ingestion failed");
      return;
    }
  }
  benchmark::DoNotOptimize(agg.EstimatedMean());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kUsers * m);
}

void BM_RngUniform(benchmark::State& state) {
  hdldp::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformDouble());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RngUniformLanes(benchmark::State& state) {
  hdldp::RngLanes lanes(1);
  double u[hdldp::RngLanes::kLanes];
  for (auto _ : state) {
    lanes.UniformDoubleLanes(u);
    benchmark::DoNotOptimize(u[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          hdldp::RngLanes::kLanes);
}

void BM_AggregatorConsume(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  auto agg =
      hdldp::protocol::MeanAggregator::Create(dims, hdldp::mech::DomainMap())
          .value();
  hdldp::Rng rng(2);
  std::uint32_t j = 0;
  for (auto _ : state) {
    agg.Consume(j, 0.5);
    if (++j == dims) j = 0;
  }
  state.SetItemsProcessed(state.iterations());
}

// Client -> aggregator ingestion for one block of users. Items processed
// are perturbed values, so items/s is ingestion throughput and the
// ratios are the path speedups:
//
//   IngestScalar  per-user Client::ReportTo + per-entry Consume (the
//                 kV1Scalar chunk body);
//   IngestLanes   the whole block gathered through the domain map, one
//                 PerturbLanes span, ConsumeDense (the v2/v3 dense
//                 driver).
constexpr std::size_t kIngestUsers = 256;
constexpr std::size_t kIngestDims = 64;

std::vector<double> IngestTuples() {
  hdldp::Rng rng(7);
  std::vector<double> tuples(kIngestUsers * kIngestDims);
  for (double& v : tuples) v = rng.Uniform(-1.0, 1.0);
  return tuples;
}

void BM_IngestScalar(benchmark::State& state, const char* name) {
  const auto mechanism = hdldp::mech::MakeMechanism(name).value();
  hdldp::protocol::ClientOptions opts;
  const auto client =
      hdldp::protocol::Client::Create(mechanism, kIngestDims, opts).value();
  auto agg = hdldp::protocol::MeanAggregator::Create(kIngestDims,
                                                     client.domain_map())
                 .value();
  const std::vector<double> tuples = IngestTuples();
  hdldp::Rng rng(11);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kIngestUsers; ++i) {
      client.ReportTo(
          std::span<const double>(tuples).subspan(i * kIngestDims,
                                                  kIngestDims),
          &rng, [&](std::uint32_t dim, double value) {
            agg.Consume(dim, value);
          });
    }
  }
  benchmark::DoNotOptimize(agg.EstimatedMean());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kIngestUsers * kIngestDims);
}

void BM_IngestLanes(benchmark::State& state, const char* name) {
  // The v2 lane ingestion path (what engine::ChunkedEstimation's dense
  // driver runs per chunk for both the mean and frequency pipelines):
  // one prepared plan, the whole block gathered through the domain map
  // and perturbed as a single lane span, ConsumeDense folding complete
  // rows.
  const auto mechanism = hdldp::mech::MakeMechanism(name).value();
  hdldp::protocol::ClientOptions opts;
  const auto client =
      hdldp::protocol::Client::Create(mechanism, kIngestDims, opts).value();
  const hdldp::mech::SamplerPlan plan =
      mechanism->MakePlan(client.PerDimensionEpsilon());
  const hdldp::mech::DomainMap& map = client.domain_map();
  auto agg = hdldp::protocol::MeanAggregator::Create(kIngestDims,
                                                     client.domain_map())
                 .value();
  const std::vector<double> tuples = IngestTuples();
  hdldp::RngLanes lanes(11);
  std::vector<double> natives(kIngestUsers * kIngestDims);
  std::vector<double> perturbed(kIngestUsers * kIngestDims);
  for (auto _ : state) {
    for (std::size_t k = 0; k < natives.size(); ++k) {
      natives[k] = map.Forward(tuples[k]);
    }
    hdldp::mech::PerturbLanes(plan, natives, &lanes, perturbed);
    if (!agg.ConsumeDense(perturbed).ok()) {
      state.SkipWithError("lane ingestion failed");
      return;
    }
  }
  benchmark::DoNotOptimize(agg.EstimatedMean());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kIngestUsers * kIngestDims);
}

void BM_RecalibrateL1(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  hdldp::Rng rng(3);
  std::vector<double> theta(dims);
  std::vector<double> lambda(dims);
  for (std::size_t k = 0; k < dims; ++k) {
    theta[k] = rng.Uniform(-3.0, 3.0);
    lambda[k] = rng.Uniform(0.0, 2.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdldp::hdr4me::RecalibrateL1(theta, lambda));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(dims));
}

void BM_ModelDeviation(benchmark::State& state, const char* name) {
  const auto mechanism = hdldp::mech::MakeMechanism(name).value();
  std::vector<double> values;
  std::vector<double> probs;
  for (int k = 0; k < 16; ++k) {
    values.push_back(-1.0 + 2.0 * k / 15.0);
    probs.push_back(1.0 / 16.0);
  }
  const auto dist =
      hdldp::framework::ValueDistribution::Create(values, probs).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hdldp::framework::ModelDeviation(*mechanism, 0.01, dist, 10000.0));
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_PerturbPlan, laplace_eps001, "laplace", 0.01);
BENCHMARK_CAPTURE(BM_PerturbPlan, piecewise_eps001, "piecewise", 0.01);
BENCHMARK_CAPTURE(BM_PerturbPlan, square_wave_eps001, "square_wave", 0.01);
BENCHMARK_CAPTURE(BM_PerturbPlan, hybrid_eps1, "hybrid", 1.0);
BENCHMARK_CAPTURE(BM_PerturbPlan, staircase_eps1, "staircase", 1.0);
BENCHMARK_CAPTURE(BM_PerturbPlan, scdf_eps1, "scdf", 1.0);
BENCHMARK_CAPTURE(BM_PerturbLanes, laplace_eps001, "laplace", 0.01);
BENCHMARK_CAPTURE(BM_PerturbLanes, piecewise_eps001, "piecewise", 0.01);
BENCHMARK_CAPTURE(BM_PerturbLanes, square_wave_eps001, "square_wave", 0.01);
BENCHMARK_CAPTURE(BM_PerturbLanes, hybrid_eps1, "hybrid", 1.0);
BENCHMARK_CAPTURE(BM_PerturbLanes, staircase_eps1, "staircase", 1.0);
BENCHMARK_CAPTURE(BM_PerturbLanes, scdf_eps1, "scdf", 1.0);
BENCHMARK_CAPTURE(BM_SampleDims, scalar_d128_m1, false, 128, 1);
BENCHMARK_CAPTURE(BM_SampleDims, batched_d128_m1, true, 128, 1);
BENCHMARK_CAPTURE(BM_SampleDims, scalar_d128_m8, false, 128, 8);
BENCHMARK_CAPTURE(BM_SampleDims, batched_d128_m8, true, 128, 8);
BENCHMARK_CAPTURE(BM_SampleDims, scalar_d128_m64, false, 128, 64);
BENCHMARK_CAPTURE(BM_SampleDims, batched_d128_m64, true, 128, 64);
BENCHMARK_CAPTURE(BM_SampleDims, scalar_d1024_m1, false, 1024, 1);
BENCHMARK_CAPTURE(BM_SampleDims, batched_d1024_m1, true, 1024, 1);
BENCHMARK_CAPTURE(BM_SampleDims, scalar_d1024_m8, false, 1024, 8);
BENCHMARK_CAPTURE(BM_SampleDims, batched_d1024_m8, true, 1024, 8);
BENCHMARK_CAPTURE(BM_SampleDims, scalar_d1024_m64, false, 1024, 64);
BENCHMARK_CAPTURE(BM_SampleDims, batched_d1024_m64, true, 1024, 64);
BENCHMARK_CAPTURE(BM_IngestSampled, laplace_m8_v2, "laplace",
                  hdldp::SeedScheme::kV2Lanes, 8);
BENCHMARK_CAPTURE(BM_IngestSampled, laplace_m8_v3, "laplace",
                  hdldp::SeedScheme::kV3Batched, 8);
BENCHMARK_CAPTURE(BM_IngestSampled, laplace_m64_v2, "laplace",
                  hdldp::SeedScheme::kV2Lanes, 64);
BENCHMARK_CAPTURE(BM_IngestSampled, laplace_m64_v3, "laplace",
                  hdldp::SeedScheme::kV3Batched, 64);
BENCHMARK_CAPTURE(BM_IngestSampled, piecewise_m8_v2, "piecewise",
                  hdldp::SeedScheme::kV2Lanes, 8);
BENCHMARK_CAPTURE(BM_IngestSampled, piecewise_m8_v3, "piecewise",
                  hdldp::SeedScheme::kV3Batched, 8);
BENCHMARK_CAPTURE(BM_IngestSampled, piecewise_m64_v2, "piecewise",
                  hdldp::SeedScheme::kV2Lanes, 64);
BENCHMARK_CAPTURE(BM_IngestSampled, piecewise_m64_v3, "piecewise",
                  hdldp::SeedScheme::kV3Batched, 64);
BENCHMARK(BM_RngUniform);
BENCHMARK(BM_RngUniformLanes);
BENCHMARK(BM_AggregatorConsume)->Arg(100)->Arg(10000);
BENCHMARK_CAPTURE(BM_IngestScalar, laplace, "laplace");
BENCHMARK_CAPTURE(BM_IngestLanes, laplace, "laplace");
BENCHMARK_CAPTURE(BM_IngestScalar, piecewise, "piecewise");
BENCHMARK_CAPTURE(BM_IngestLanes, piecewise, "piecewise");
BENCHMARK_CAPTURE(BM_IngestScalar, duchi, "duchi");
BENCHMARK_CAPTURE(BM_IngestLanes, duchi, "duchi");
BENCHMARK_CAPTURE(BM_IngestScalar, square_wave, "square_wave");
BENCHMARK_CAPTURE(BM_IngestLanes, square_wave, "square_wave");
BENCHMARK_CAPTURE(BM_IngestScalar, hybrid, "hybrid");
BENCHMARK_CAPTURE(BM_IngestLanes, hybrid, "hybrid");
BENCHMARK(BM_RecalibrateL1)->Arg(1000)->Arg(100000);
BENCHMARK_CAPTURE(BM_ModelDeviation, piecewise, "piecewise");
BENCHMARK_CAPTURE(BM_ModelDeviation, square_wave, "square_wave");
BENCHMARK_CAPTURE(BM_ModelDeviation, laplace, "laplace");

BENCHMARK_MAIN();
