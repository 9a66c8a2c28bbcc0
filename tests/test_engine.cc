// Tests of the unified lane-parallel estimation engine
// (engine/chunked_estimation.h, engine/reduce.h) and of the mean
// pipeline's port onto it:
//
//   (a) SeedScheme::kV1Scalar mean runs reproduce the pre-engine (PR 3)
//       pipeline's estimates bit for bit, at any thread count;
//   (b) SeedScheme::kV2Lanes mean estimates match golden outputs
//       recorded on an AVX2 build — the no-SIMD CI configuration re-runs
//       this same table, which is what pins lane-vs-scalar cross-build
//       bit-identity of the whole mean path (the laplace row is sampled
//       m < d, so it also freezes the v2 per-user sampled layout against
//       the batched v3 rewrite);
//   (c) SeedScheme::kV3Batched (the default) sampled estimates match
//       their own AVX2-recorded goldens, dense v3 runs equal dense v2
//       runs bit for bit, and estimates under all schemes are invariant
//       to num_threads;
//   (d) the generic two-level reduction drives arbitrary accumulator
//       types with the same deterministic geometry.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "engine/chunked_estimation.h"
#include "engine/reduce.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}

// --- Engine geometry -------------------------------------------------------

// A zero-filled resident source of `users` one-value rows: the schedule
// and streams depend on the user count and seed only.
data::Dataset Users(std::size_t users) {
  return data::Dataset::Create(users, 1).value();
}

TEST(ChunkedEstimationTest, ScheduleIsAPureFunctionOfUsersAndSeed) {
  engine::RunControl control;
  control.seed = 77;
  const data::Dataset users = Users(10000);
  const data::ResidentChunkSource source(&users);
  const engine::ChunkedEstimation core(source, control, 1);
  EXPECT_EQ(core.num_chunks(), 3u);  // ceil(10000 / 4096)
  const engine::ChunkRange r0 = core.Range(0);
  const engine::ChunkRange r2 = core.Range(2);
  EXPECT_EQ(r0.begin, 0u);
  EXPECT_EQ(r0.end, engine::kUsersPerChunk);
  EXPECT_EQ(r0.chunk_seed, ChunkSeed(77, 0));
  EXPECT_EQ(r2.begin, 2 * engine::kUsersPerChunk);
  EXPECT_EQ(r2.end, 10000u);
  EXPECT_EQ(r2.chunk_seed, ChunkSeed(77, 2));
}

TEST(ChunkedEstimationTest, StreamsMatchTheDocumentedContracts) {
  engine::RunControl control;
  control.seed = 5;
  const data::Dataset users = Users(5000);
  const data::ResidentChunkSource source(&users);
  const engine::ChunkedEstimation core(source, control, 1);
  const engine::ChunkRange r = core.Range(1);
  // Lane l of the chunk's lane generator is Rng(LaneSeed(chunk_seed, l)).
  RngLanes lanes = core.LaneStreams(r);
  std::uint64_t raw[RngLanes::kLanes];
  lanes.NextLanes(raw);
  for (std::size_t l = 0; l < RngLanes::kLanes; ++l) {
    EXPECT_EQ(raw[l], Rng(LaneSeed(r.chunk_seed, l)).Next()) << l;
  }
  // The scalar stream is Rng(chunk_seed) itself (the v1 contract).
  EXPECT_EQ(core.ScalarStream(r).Next(), Rng(r.chunk_seed).Next());
  // The dimension-sampler stream is decorrelated from both.
  Rng dims = core.DimSamplerStream(r);
  EXPECT_NE(dims.Next(), Rng(r.chunk_seed).Next());
}

// --- Generic two-level reduction -------------------------------------------

// A deliberately non-aggregator accumulator: proves engine::ReduceChunks
// is generic over the accumulator type, not bound to MeanAggregator.
struct CountAcc {
  std::vector<std::int64_t> totals;
  void Reset() { std::fill(totals.begin(), totals.end(), 0); }
  Status Merge(const CountAcc& other) {
    for (std::size_t i = 0; i < totals.size(); ++i) {
      totals[i] += other.totals[i];
    }
    return Status::OK();
  }
};

TEST(EngineReduceTest, GenericAccumulatorMatchesSerialFold) {
  constexpr std::size_t kChunks = 1300;  // Exercises group sizes > 1.
  const auto make = [] {
    CountAcc acc;
    acc.totals.assign(4, 0);
    return Result<CountAcc>(std::move(acc));
  };
  const auto body = [](std::size_t c, CountAcc* acc) {
    Rng rng(ChunkSeed(9, c));
    for (int i = 0; i < 3; ++i) {
      ++acc->totals[rng.UniformInt(4)];
    }
    return Status::OK();
  };
  const CountAcc serial =
      engine::ReduceChunks<CountAcc>(kChunks, 1, make, body).value();
  const std::int64_t total =
      std::accumulate(serial.totals.begin(), serial.totals.end(),
                      std::int64_t{0});
  EXPECT_EQ(total, static_cast<std::int64_t>(kChunks) * 3);
  for (const std::size_t workers : {0u, 2u, 7u, 16u}) {
    const CountAcc parallel =
        engine::ReduceChunks<CountAcc>(kChunks, workers, make, body).value();
    EXPECT_EQ(serial.totals, parallel.totals) << workers;
  }
}

TEST(EngineReduceTest, GroupGeometryIsFlatBelowTheCapAndBoundedAbove) {
  const engine::ReductionGeometry flat = engine::GroupGeometry(100);
  EXPECT_EQ(flat.group_size, 1u);
  EXPECT_EQ(flat.num_groups, 100u);
  const engine::ReductionGeometry tree = engine::GroupGeometry(100000);
  EXPECT_LE(tree.num_groups, engine::kMaxReductionGroups);
  EXPECT_GE(tree.group_size * tree.num_groups, 100000u);
  EXPECT_EQ(engine::GroupGeometry(0).num_groups, 0u);
}

TEST(EngineReduceTest, PropagatesBodyAndFactoryFailures) {
  const auto make = [] { return Result<CountAcc>(CountAcc{}); };
  const auto failing = [](std::size_t c, CountAcc*) {
    return c == 37 ? Status::Internal("chunk 37 failed") : Status::OK();
  };
  const auto result = engine::ReduceChunks<CountAcc>(64, 4, make, failing);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("chunk 37"), std::string::npos);
}

// A resumed group's quarantine list comes from a checkpoint file. One
// that repeats a chunk, names a chunk outside the group or one the group
// had not completed would wrap the survivor count or misplace the
// first-survivor scan of its consumers, so the reduction refuses it.
TEST(EngineReduceTest, ResumedQuarantineListMustAscendInsideCompletedChunks) {
  constexpr std::size_t kChunks = 1300;  // Groups of 3: group 1 is 3..5.
  ASSERT_EQ(engine::GroupGeometry(kChunks).group_size, 3u);
  const auto make = [] {
    CountAcc acc;
    acc.totals.assign(1, 0);
    return Result<CountAcc>(std::move(acc));
  };
  const auto body = [](std::size_t, CountAcc* acc) {
    ++acc->totals[0];
    return Status::OK();
  };
  // Group 1 resumes after its first two chunks with `listed` quarantined.
  using Loaded = std::optional<engine::GroupCheckpoint<CountAcc>>;
  const auto resume_with = [&](const std::vector<std::size_t>& listed,
                               std::vector<std::size_t>* quarantined) {
    engine::CheckpointHooks<CountAcc> hooks;
    hooks.load = [&](std::size_t group) -> Result<Loaded> {
      if (group != 1) return Loaded();
      CountAcc acc;
      acc.totals.assign(1, 2 - static_cast<std::int64_t>(listed.size()));
      return Loaded(
          engine::GroupCheckpoint<CountAcc>{2, listed, std::move(acc)});
    };
    return engine::ReduceChunksResumable<CountAcc>(
        kChunks, 2, make, body, engine::RunControl{}, hooks, quarantined);
  };
  for (const std::vector<std::size_t>& listed :
       {std::vector<std::size_t>{}, {3}, {4}, {3, 4}}) {
    std::vector<std::size_t> quarantined;
    const auto reduced = resume_with(listed, &quarantined);
    ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
    EXPECT_EQ(reduced.value().totals[0],
              static_cast<std::int64_t>(kChunks - listed.size()));
    EXPECT_EQ(quarantined, listed);
  }
  for (const std::vector<std::size_t>& listed :
       {std::vector<std::size_t>{3, 3},  // Duplicated.
        {4, 3},                          // Descending.
        {0},                             // Before the group.
        {7},                             // After the group.
        {5},                             // In the group, not yet completed.
        {3, 5}}) {
    std::vector<std::size_t> quarantined;
    const auto reduced = resume_with(listed, &quarantined);
    ASSERT_FALSE(reduced.ok()) << listed.size();
    EXPECT_EQ(reduced.status().code(), StatusCode::kDataLoss);
  }
}

// --- Mean pipeline golden streams ------------------------------------------

data::Dataset GoldenDataset(std::size_t users, std::size_t dims) {
  Rng rng(2);
  return data::Generate(data::UniformSpec{.num_users = users, .num_dims = dims},
                        &rng).value();
}

struct MeanGolden {
  const char* mechanism;
  std::size_t users;
  std::size_t dims;
  std::size_t report_dims;
  double eps;
  std::uint64_t seed;
  std::vector<std::uint64_t> mean_bits;
  std::vector<std::int64_t> counts;
  std::uint64_t mse_bits;
};

void CheckGolden(const MeanGolden& golden, SeedScheme scheme,
                 std::size_t num_threads) {
  const data::Dataset ds = GoldenDataset(golden.users, golden.dims);
  protocol::PipelineOptions opts;
  opts.total_epsilon = golden.eps;
  opts.report_dims = golden.report_dims;
  opts.seed = golden.seed;
  opts.seed_scheme = scheme;
  opts.num_threads = num_threads;
  const auto run =
      protocol::RunMeanEstimation(ds, mech::MakeMechanism(golden.mechanism)
                                          .value(),
                                  opts)
          .value();
  ASSERT_EQ(run.estimated_mean.size(), golden.mean_bits.size());
  for (std::size_t j = 0; j < golden.dims; ++j) {
    EXPECT_EQ(Bits(run.estimated_mean[j]), golden.mean_bits[j])
        << "dim " << j << " threads " << num_threads;
  }
  EXPECT_EQ(run.report_counts, golden.counts);
  EXPECT_EQ(Bits(run.mse), golden.mse_bits);
}

// Pre-engine (PR 3) outputs of the scalar chunked mean pipeline, captured
// before this refactor: the kV1Scalar legacy path must reproduce them bit
// for bit, for any thread count. Dense (m == d) and sampled (m < d)
// paths.
const MeanGolden kV1Goldens[] = {
    {"piecewise", 9000, 5, 0, 2.0, 33,
     {0xbfb77ab30acf022bULL, 0xbf7cfb070e8492f0ULL, 0xbfac8eed8f7e8246ULL,
      0x3f948272198849ceULL, 0x3f9cb66555a55a60ULL},
     {9000, 9000, 9000, 9000, 9000},
     0x3f631b59b9fe6c2fULL},
    {"laplace", 9000, 6, 2, 2.0, 33,
     {0xbf75460e39f9c6bcULL, 0x3fa2c2c9cf2afbb3ULL, 0xbfa3ba279725c7f5ULL,
      0x3f86bb26a24cfe5cULL, 0x3f9baa212454775dULL, 0x3f9d398ce0c718e0ULL},
     {2955, 2992, 3040, 2992, 3099, 2922},
     0x3f4bc3df2a03267cULL},
    {"square_wave", 5000, 4, 0, 8.0, 12,
     {0x3f497d1e75bb6000ULL, 0xbf842e14b49d3b80ULL, 0x3f7608aa8a251b00ULL,
      0xbf806c5862932bc0ULL},
     {5000, 5000, 5000, 5000},
     0x3f0ebc3aa521fd31ULL},
};

TEST(MeanPipelineGoldenTest, V1ScalarSeedsReproducePreEngineEstimates) {
  for (const MeanGolden& golden : kV1Goldens) {
    SCOPED_TRACE(golden.mechanism);
    CheckGolden(golden, SeedScheme::kV1Scalar, 1);
    CheckGolden(golden, SeedScheme::kV1Scalar, 4);
  }
}

// kV2Lanes outputs recorded on an AVX2 build. The release-nosimd CI
// configuration runs this same table on the portable scalar lane
// kernels, which is what pins lane-vs-scalar cross-build bit-identity of
// the whole mean path (draws, Vec arithmetic, LogVec, reduction), not
// just the kernels test_rng_lanes covers in-process.
const MeanGolden kV2Goldens[] = {
    {"piecewise", 9000, 5, 0, 2.0, 33,
     {0xbfb2885408a296abULL, 0x3f91ca7486b62377ULL, 0xbf964537dec6400dULL,
      0xbfc2c211dd3c795eULL, 0x3fa334c0a39dafb4ULL},
     {9000, 9000, 9000, 9000, 9000},
     0x3f7711c3695e1cdcULL},
    {"laplace", 9000, 6, 2, 2.0, 33,
     {0xbf9c10508ea39f67ULL, 0xbf4e4113ffc2aa87ULL, 0x3f5106433d48bd3bULL,
      0xbfb0ece5cb2e0118ULL, 0xbfb2f0a775ab075aULL, 0xbfb589feec586ffdULL},
     {2996, 3070, 2959, 2929, 2981, 3065},
     0x3f67054d81ba1ba0ULL},
    {"square_wave", 5000, 4, 0, 8.0, 12,
     {0x3f834080a22d8d00ULL, 0xbf35ffa493bd1800ULL, 0xbf615f34e93e2700ULL,
      0xbf7da39cd2cd1180ULL},
     {5000, 5000, 5000, 5000},
     0x3ef918c41698fb67ULL},
};

TEST(MeanPipelineGoldenTest, V2LaneGoldensPinCrossBuildBitIdentity) {
  for (const MeanGolden& golden : kV2Goldens) {
    SCOPED_TRACE(golden.mechanism);
    CheckGolden(golden, SeedScheme::kV2Lanes, 1);
    CheckGolden(golden, SeedScheme::kV2Lanes, 4);
  }
}

// kV3Batched sampled (m < d) outputs recorded on an AVX2 build: the
// cross-user block layout (sorted batched dimension draws, lane spans of
// >= engine::kSampledEntriesPerBlock (4096) entries, scattered block
// folds) is frozen by these rows, and the
// release-nosimd CI job replays them on the portable scalar kernels. The
// laplace row shares its config with the kV2Goldens laplace row: same
// dimension draws (hence identical report counts) through a different
// perturbation layout.
const MeanGolden kV3Goldens[] = {
    {"piecewise", 9000, 5, 2, 2.0, 33,
     {0xbfa346d7849d86e0ULL, 0x3f872498c155ea44ULL, 0x3f98354e796bdfbfULL,
      0xbf163e475d8be124ULL, 0xbfac73dd76fdef23ULL},
     {3631, 3606, 3540, 3617, 3606},
     0x3f50e2ec08295b6fULL},
    {"laplace", 9000, 6, 2, 2.0, 33,
     {0xbfa65867f71d1de3ULL, 0x3f911c2877c6aae4ULL, 0xbfa584426bbf4e41ULL,
      0xbfa74acd5a49d41eULL, 0x3f9442c96062fbe5ULL, 0xbfb1e986b27f36b1ULL},
     {2996, 3070, 2959, 2929, 2981, 3065},
     0x3f5e8ec75b355010ULL},
    {"square_wave", 5000, 4, 1, 8.0, 12,
     {0xbf6ab02f88e3e900ULL, 0x3f765b4c6bc0cc00ULL, 0xbf8f86a8cb1233c0ULL,
      0xbfa395738fa66460ULL},
     {1228, 1297, 1256, 1219},
     0x3f315e8fd87a97f2ULL},
};

TEST(MeanPipelineGoldenTest, V3SampledGoldensPinTheBatchedLayout) {
  for (const MeanGolden& golden : kV3Goldens) {
    SCOPED_TRACE(golden.mechanism);
    CheckGolden(golden, SeedScheme::kV3Batched, 1);
    CheckGolden(golden, SeedScheme::kV3Batched, 4);
  }
}

TEST(MeanPipelineGoldenTest, V3BatchedIsTheDefaultScheme) {
  EXPECT_EQ(protocol::PipelineOptions{}.seed_scheme, SeedScheme::kV3Batched);
  EXPECT_EQ(engine::RunControl{}.seed_scheme, SeedScheme::kV3Batched);
}

TEST(MeanPipelineGoldenTest, V3DenseEqualsV2DenseBitForBit) {
  // The v3 contract changes only the sampled layout; a dense (m == d)
  // run must reproduce the v2 estimates exactly.
  const data::Dataset ds = GoldenDataset(9000, 5);
  for (const auto name : {"piecewise", "hybrid"}) {
    SCOPED_TRACE(name);
    protocol::PipelineOptions opts;
    opts.total_epsilon = 2.0;
    opts.seed = 33;
    opts.num_threads = 2;
    opts.seed_scheme = SeedScheme::kV2Lanes;
    const auto mech = mech::MakeMechanism(name).value();
    const auto v2 = protocol::RunMeanEstimation(ds, mech, opts).value();
    opts.seed_scheme = SeedScheme::kV3Batched;
    const auto v3 = protocol::RunMeanEstimation(ds, mech, opts).value();
    EXPECT_EQ(v2.estimated_mean, v3.estimated_mean);
    EXPECT_EQ(v2.report_counts, v3.report_counts);
    EXPECT_EQ(v2.mse, v3.mse);
  }
}

// --- Thread-count invariance of the engine-driven mean pipeline ------------

TEST(MeanPipelineEngineTest, EstimatesInvariantToThreadCountUnderAllSchemes) {
  const data::Dataset ds = GoldenDataset(9000, 5);
  for (const SeedScheme scheme :
       {SeedScheme::kV1Scalar, SeedScheme::kV2Lanes, SeedScheme::kV3Batched}) {
    for (const std::size_t report_dims : {std::size_t{0}, std::size_t{3}}) {
      SCOPED_TRACE(static_cast<int>(scheme));
      SCOPED_TRACE(report_dims);
      protocol::PipelineOptions opts;
      opts.total_epsilon = 2.0;
      opts.report_dims = report_dims;
      opts.seed = 51;
      opts.seed_scheme = scheme;
      opts.num_threads = 1;
      const auto mech = mech::MakeMechanism("hybrid").value();
      const auto serial = protocol::RunMeanEstimation(ds, mech, opts).value();
      for (const std::size_t threads : {0u, 2u, 5u, 16u}) {
        protocol::PipelineOptions parallel = opts;
        parallel.num_threads = threads;
        const auto p = protocol::RunMeanEstimation(ds, mech, parallel).value();
        EXPECT_EQ(serial.estimated_mean, p.estimated_mean) << threads;
        EXPECT_EQ(serial.report_counts, p.report_counts) << threads;
        EXPECT_EQ(serial.mse, p.mse) << threads;
      }
    }
  }
}

TEST(MeanPipelineEngineTest, V2TracksTruthForEveryMechanism) {
  // The lane path redraws the same distributions through different
  // streams; estimates must still track the truth at a generous budget.
  const data::Dataset ds = GoldenDataset(20000, 6);
  for (const auto name : mech::RegisteredMechanismNames()) {
    SCOPED_TRACE(std::string(name));
    protocol::PipelineOptions opts;
    opts.total_epsilon = 8.0;
    opts.report_dims = 2;
    opts.seed = 7;
    opts.num_threads = 2;
    const auto run =
        protocol::RunMeanEstimation(ds, mech::MakeMechanism(name).value(),
                                    opts)
            .value();
    EXPECT_LT(run.mse, 0.5);
  }
}

}  // namespace
}  // namespace hdldp
