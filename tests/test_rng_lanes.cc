// Tests of the v2 lane stream contract (common/rng_lanes.h,
// common/lane_math.h, mech/plan.h lane bodies, freq kV2Lanes pipeline):
//
//   (a) the SIMD and portable scalar lane kernels are bit-identical —
//       in-process where both are compiled (NextLanes vs NextLanesScalar,
//       Log4 vs Log4Scalar), and across builds via golden lane streams
//       that the no-SIMD CI configuration re-checks;
//   (b) kV2Lanes and kV3Batched frequency estimates are invariant to
//       the thread count, and the sampled goldens of both schemes pin
//       their layouts (per-user spans vs cross-user batched blocks);
//   (c) legacy seeds (SeedScheme::kV1Scalar scalar streams, kV2Lanes
//       per-user sampled spans) still reproduce their recorded
//       estimates bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/lane_math.h"
#include "common/rng.h"
#include "common/rng_lanes.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "mech/mechanism.h"
#include "mech/plan.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"

namespace hdldp {
namespace {

// Mirrors the pipeline's flattening of per-dimension frequency vectors.
std::vector<double> Flatten(const std::vector<std::vector<double>>& nested) {
  std::vector<double> flat;
  for (const auto& v : nested) flat.insert(flat.end(), v.begin(), v.end());
  return flat;
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}

std::vector<std::uint64_t> BitsOf(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) bits.push_back(Bits(v));
  return bits;
}

TEST(RngLanesTest, LaneStreamsAreTheDocumentedScalarStreams) {
  // Lane l of RngLanes(seed) must be exactly Rng(LaneSeed(seed, l)).
  const std::uint64_t seed = 0xDECAFBAD;
  RngLanes lanes(seed);
  Rng scalar[RngLanes::kLanes] = {
      Rng(LaneSeed(seed, 0)), Rng(LaneSeed(seed, 1)), Rng(LaneSeed(seed, 2)),
      Rng(LaneSeed(seed, 3))};
  for (int step = 0; step < 1000; ++step) {
    std::uint64_t out[RngLanes::kLanes];
    lanes.NextLanes(out);
    for (std::size_t l = 0; l < RngLanes::kLanes; ++l) {
      ASSERT_EQ(out[l], scalar[l].Next()) << "lane " << l << " step " << step;
    }
  }
}

TEST(RngLanesTest, SimdAndScalarAdvanceBitIdentical) {
  RngLanes a(7);
  RngLanes b(7);
  for (int step = 0; step < 1000; ++step) {
    std::uint64_t ra[RngLanes::kLanes];
    std::uint64_t rb[RngLanes::kLanes];
    a.NextLanes(ra);       // AVX2 on SIMD builds.
    b.NextLanesScalar(rb); // Always the portable loop.
    for (std::size_t l = 0; l < RngLanes::kLanes; ++l) {
      ASSERT_EQ(ra[l], rb[l]) << "lane " << l << " step " << step;
    }
  }
}

TEST(RngLanesTest, UniformsAreThe52BitGrid) {
  RngLanes lanes(99);
  RngLanes mirror(99);
  for (int step = 0; step < 200; ++step) {
    double u[RngLanes::kLanes];
    std::uint64_t raw[RngLanes::kLanes];
    lanes.UniformDoubleLanes(u);
    mirror.NextLanesScalar(raw);
    for (std::size_t l = 0; l < RngLanes::kLanes; ++l) {
      ASSERT_EQ(u[l], static_cast<double>(raw[l] >> 12) * 0x1.0p-52);
      ASSERT_GE(u[l], 0.0);
      ASSERT_LT(u[l], 1.0);
    }
  }
}

TEST(LaneMathTest, LogKernelBitIdenticalToScalarTwin) {
  // Dispatching Log4 (AVX2 on SIMD builds) against the always-scalar
  // twin, over random uniform-grid arguments plus edge values.
  Rng rng(0xAB);
  std::vector<double> ws = {0.0,
                            0x1.0p-52,
                            0x1.0p-52 * 3,
                            0.25,
                            0.5,
                            0.70710678118654746,  // near sqrt(2)/2
                            0.70710678118654757,
                            0.75,
                            1.0 - 0x1.0p-52,
                            1.0};
  for (int i = 0; i < 4000; ++i) {
    ws.push_back(static_cast<double>(rng.Next() >> 12) * 0x1.0p-52);
  }
  while (ws.size() % lanes::kLanes != 0) ws.push_back(0.5);
  for (std::size_t i = 0; i < ws.size(); i += lanes::kLanes) {
    double got[lanes::kLanes];
    double want[lanes::kLanes];
    lanes::Log4(&ws[i], got);
    lanes::Log4Scalar(&ws[i], want);
    for (std::size_t l = 0; l < lanes::kLanes; ++l) {
      std::uint64_t gb, wb;
      std::memcpy(&gb, &got[l], 8);
      std::memcpy(&wb, &want[l], 8);
      ASSERT_EQ(gb, wb) << "w = " << ws[i + l];
    }
  }
}

TEST(LaneMathTest, LogKernelAccurateAgainstLibm) {
  Rng rng(0xAC);
  EXPECT_EQ(lanes::LogScalar(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(lanes::LogScalar(1.0), 0.0);
  for (int i = 0; i < 20000; ++i) {
    const double w = static_cast<double>((rng.Next() >> 12) | 1) * 0x1.0p-52;
    const double got = lanes::LogScalar(w);
    const double want = std::log(w);
    // Sampling-grade accuracy: a few ulp. Compare via the spacing at the
    // result's magnitude.
    const double tol = 4.0 * std::abs(want) * 0x1.0p-52 + 1e-300;
    ASSERT_NEAR(got, want, tol) << "w = " << w;
  }
}

struct LaneGolden {
  const char* mechanism;
  double eps;
  std::uint64_t out_bits[6];
};

// Golden lane streams recorded on an AVX2 build: PerturbLanes over six
// evenly spaced native inputs under RngLanes(0xC0FFEE). The no-SIMD CI
// configuration runs this same table, which is what pins cross-build
// bit-identity of the whole lane sampler stack (draws, Vec arithmetic,
// LogVec) — not just the kernels the in-process tests cover.
const LaneGolden kLaneGoldens[] = {
    {"duchi", 0.001, {0x409f40002bb0cf7cULL, 0xc09f40002bb0cf7cULL, 0xc09f40002bb0cf7cULL, 0xc09f40002bb0cf7cULL, 0xc09f40002bb0cf7cULL, 0xc09f40002bb0cf7cULL}},
    {"duchi", 1.0, {0x40014fc6ceb099bfULL, 0xc0014fc6ceb099bfULL, 0xc0014fc6ceb099bfULL, 0xc0014fc6ceb099bfULL, 0xc0014fc6ceb099bfULL, 0xc0014fc6ceb099bfULL}},
    {"duchi", 100.0, {0xbff0000000000000ULL, 0xbff0000000000000ULL, 0xbff0000000000000ULL, 0xbff0000000000000ULL, 0x3ff0000000000000ULL, 0x3ff0000000000000ULL}},
    // Hybrid goldens re-recorded for the two-round shared-coin layout
    // (the mixture coin is rescaled into the winning component's coin;
    // see HybridPlan::Lanes4).
    {"hybrid", 0.001, {0x409f40002bb0cf7cULL, 0xc09f40002bb0cf7cULL, 0xc09f40002bb0cf7cULL, 0xc09f40002bb0cf7cULL, 0xc09f40002bb0cf7cULL, 0x409f40002bb0cf7cULL}},
    {"hybrid", 1.0, {0xbffaf7017b2f25aeULL, 0xc0014fc6ceb099bfULL, 0x40014fc6ceb099bfULL, 0x40014fc6ceb099bfULL, 0xc0014fc6ceb099bfULL, 0xc00430cc81e64b3bULL}},
    {"hybrid", 100.0, {0xbff0000000000000ULL, 0xbfe3333333333333ULL, 0xbfc9999999999998ULL, 0x3fc9999999999998ULL, 0x3fe3333333333334ULL, 0x3ff0000000000000ULL}},
    {"laplace", 0.001, {0xc098bc661bae19acULL, 0x40a43a9960dee2bcULL, 0x4062075a28b61cfaULL, 0x4090ac3bee848e08ULL, 0x4099578ea9372016ULL, 0x40ad37c08abeef67ULL}},
    {"laplace", 1.0, {0xc004a823e53652c6ULL, 0x3fffd6a0edb6728cULL, 0xbfac73b3fb72a248ULL, 0x3ff4450d72662620ULL, 0x4001c5335568d1c3ULL, 0x4012f49beced05d6ULL}},
    {"laplace", 100.0, {0xbff040cd84959104ULL, 0xbfe25f0911c6143cULL, 0xbfc96a45f4366e39ULL, 0x3fcaf7302e04136eULL, 0x3fe3b80419f1c2c3ULL, 0x3ff09924f4ff3dacULL}},
    {"piecewise", 0.001, {0xc08bcf5d2839d8b4ULL, 0x40acd701371885f1ULL, 0x40a4a349be70da39ULL, 0x40a680a339b1473fULL, 0xc0a3a87645dc9bcdULL, 0x40932ea0d6912d11ULL}},
    {"piecewise", 1.0, {0xbffaf7017b2f25aeULL, 0x400d874c5a9be708ULL, 0xbf8ba1aab0fb2d00ULL, 0x400548ba961920daULL, 0xc001956e4d3991baULL, 0x3fff217ffeb8fc24ULL}},
    {"piecewise", 100.0, {0xbff0000000000000ULL, 0xbfe3333333333333ULL, 0xbfc9999999999998ULL, 0x3fc9999999999998ULL, 0x3fe3333333333334ULL, 0x3ff0000000000000ULL}},
    {"scdf", 0.001, {0x40a77fa36adafc44ULL, 0x40b404f36b1fe9a1ULL, 0xc0a0e44b81f0b583ULL, 0x40a3ea1985727f3bULL, 0x40707b08a7915f35ULL, 0x4085e8e06257e8b3ULL}},
    {"scdf", 1.0, {0xbfc7254940eee2c0ULL, 0x4013cdac7fa68622ULL, 0xc0109703e16b0723ULL, 0x4014330ae4fe769eULL, 0xbfd3dd61ba832f80ULL, 0x4008e06257e8b361ULL}},
    {"scdf", 100.0, {0xbfc7254940eee2c0ULL, 0xbff0c94e0165e77aULL, 0xbfd0295b82e9276cULL, 0x3ff0cc2b93f9da77ULL, 0xbfd3dd61ba832f80ULL, 0x3ff1c0c4afd166c2ULL}},
    {"square_wave", 0.001, {0x3fd1c309f5f8858dULL, 0x3ff6c2cffb59458aULL, 0x3ff29006b564f13aULL, 0x3ff3845e3a571ec0ULL, 0xbfc07d153992c482ULL, 0x3fe9d1e07e7883d6ULL}},
    {"square_wave", 1.0, {0x3fc234c8505e0906ULL, 0x3ff2dd17d01deb10ULL, 0x3fdedc5f84afa86cULL, 0x3fef3d4c1e37888bULL, 0x3fbd615840901eacULL, 0x3fecd5267157c847ULL}},
    {"square_wave", 100.0, {0x3736cf151a058cc0ULL, 0x3fc999999999999aULL, 0x3fd999999999999aULL, 0x3fe3333333333333ULL, 0x3fe999999999999aULL, 0x3ff0000000000000ULL}},
    {"staircase", 0.001, {0x40801746c9dc3972ULL, 0x40af1159b9c826b1ULL, 0xc097eeb1c5d9e553ULL, 0x40a32c3ff376a874ULL, 0x406b14a229ad266bULL, 0x40a0cb1bfa1d255fULL}},
    {"staircase", 1.0, {0x3fec65f005b278eaULL, 0x4003fbd525d25e54ULL, 0xbff8b7b0ea2bc453ULL, 0x40106d179d588e26ULL, 0x3fe4485b26112af6ULL, 0x400b59eadce75d10ULL}},
    {"staircase", 100.0, {0xbff0000000000000ULL, 0xbfe3333333333333ULL, 0xbfc9999999999998ULL, 0x3fc9999999999998ULL, 0x3fe3333333333334ULL, 0x3ff0000000000000ULL}},
};

TEST(PerturbLanesTest, GoldenStreamsPinCrossBuildBitIdentity) {
  for (const LaneGolden& golden : kLaneGoldens) {
    SCOPED_TRACE(std::string(golden.mechanism) + " eps " +
                 std::to_string(golden.eps));
    const auto mechanism = mech::MakeMechanism(golden.mechanism).value();
    const mech::SamplerPlan plan = mechanism->MakePlan(golden.eps);
    RngLanes lanes(0xC0FFEE);
    const mech::Interval dom = mechanism->InputDomain();
    double ts[6];
    double out[6];
    for (int i = 0; i < 6; ++i) {
      ts[i] = dom.lo + dom.Width() * i / 5.0;
    }
    mech::PerturbLanes(plan, std::span<const double>(ts, 6), &lanes,
                       std::span<double>(out, 6));
    for (int i = 0; i < 6; ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, &out[i], 8);
      ASSERT_EQ(bits, golden.out_bits[i]) << "value " << i;
    }
  }
}

TEST(PerturbLanesTest, PartialGroupPaddingIsPrefixStable) {
  // The tail group pads dead lanes: outputs over a 7-value span must be
  // the first 7 outputs of the padded 8-value span under the same seed.
  const auto mechanism = mech::MakeMechanism("laplace").value();
  const mech::SamplerPlan plan = mechanism->MakePlan(0.5);
  std::vector<double> ts7 = {-1.0, -0.6, -0.2, 0.0, 0.2, 0.6, 1.0};
  std::vector<double> ts8 = ts7;
  ts8.push_back(0.0);  // The pad value PerturbLanes uses.
  std::vector<double> out7(7);
  std::vector<double> out8(8);
  RngLanes lanes7(31);
  RngLanes lanes8(31);
  mech::PerturbLanes(plan, ts7, &lanes7, out7);
  mech::PerturbLanes(plan, ts8, &lanes8, out8);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out7[i], out8[i]) << i;
  // And both generators end at the same stream position.
  std::uint64_t a[RngLanes::kLanes];
  std::uint64_t b[RngLanes::kLanes];
  lanes7.NextLanes(a);
  lanes8.NextLanes(b);
  for (std::size_t l = 0; l < RngLanes::kLanes; ++l) EXPECT_EQ(a[l], b[l]);
}

TEST(PerturbLanesTest, LaneDistributionsMatchScalarPlans) {
  // The lane bodies redraw the same distributions through different
  // streams; their sample moments must agree with the scalar plan's.
  constexpr std::size_t kN = 1 << 16;
  for (const auto name : mech::RegisteredMechanismNames()) {
    SCOPED_TRACE(std::string(name));
    const auto mechanism = mech::MakeMechanism(name).value();
    for (const double eps : {0.05, 1.0}) {
      SCOPED_TRACE(eps);
      const mech::SamplerPlan plan = mechanism->MakePlan(eps);
      const double t =
          mechanism->InputDomain().lo == 0.0 ? 0.65 : 0.3;
      std::vector<double> ts(kN, t);
      std::vector<double> lane_out(kN);
      RngLanes lanes(4242);
      mech::PerturbLanes(plan, ts, &lanes, lane_out);
      Rng rng(4242);
      std::vector<double> scalar_out(kN);
      mech::PerturbSpan(plan, ts, &rng, scalar_out);
      double lane_mean = 0.0, scalar_mean = 0.0;
      double lane_sq = 0.0, scalar_sq = 0.0;
      for (std::size_t i = 0; i < kN; ++i) {
        lane_mean += lane_out[i];
        scalar_mean += scalar_out[i];
        lane_sq += lane_out[i] * lane_out[i];
        scalar_sq += scalar_out[i] * scalar_out[i];
      }
      lane_mean /= kN;
      scalar_mean /= kN;
      const double lane_sd = std::sqrt(lane_sq / kN - lane_mean * lane_mean);
      const double scalar_sd =
          std::sqrt(scalar_sq / kN - scalar_mean * scalar_mean);
      // Two independent 65k samples of the same law: means agree within
      // a few standard errors, spreads within ~5%.
      const double se = scalar_sd / std::sqrt(static_cast<double>(kN));
      EXPECT_NEAR(lane_mean, scalar_mean, 6.0 * se + 1e-12);
      EXPECT_NEAR(lane_sd, scalar_sd, 0.05 * scalar_sd + 1e-12);
    }
  }
}

TEST(ReduceChunksTest, BitIdenticalToFlatChunkOrderMergeBelowGroupCap) {
  // For num_chunks <= kMaxReductionGroups the tree must reproduce the
  // PR 2 reduction (one local per chunk, merged flat in chunk order)
  // bit for bit — that is what keeps RunMeanEstimation's outputs stable.
  constexpr std::size_t kChunks = 100;
  constexpr std::size_t kDims = 4;
  const auto chunk_fn = [](std::size_t c, protocol::MeanAggregator* scratch) {
    Rng rng(ChunkSeed(3, c));
    for (int i = 0; i < 17; ++i) {
      scratch->Consume(static_cast<std::uint32_t>(rng.UniformInt(kDims)),
                       rng.Uniform(-1.0, 1.0));
    }
    return Status::OK();
  };
  auto flat =
      protocol::MeanAggregator::Create(kDims, mech::DomainMap()).value();
  for (std::size_t c = 0; c < kChunks; ++c) {
    auto local =
        protocol::MeanAggregator::Create(kDims, mech::DomainMap()).value();
    ASSERT_TRUE(chunk_fn(c, &local).ok());
    ASSERT_TRUE(flat.Merge(local).ok());
  }
  const auto tree =
      protocol::MeanAggregator::ReduceChunks(kDims, mech::DomainMap(), kChunks,
                                             8, chunk_fn)
          .value();
  EXPECT_EQ(flat.EstimatedMean(), tree.EstimatedMean());
  EXPECT_EQ(flat.TotalReports(), tree.TotalReports());
}

TEST(ReduceChunksTest, TwoLevelTreeMatchesFlatFoldAndThreadCounts) {
  // 1200 chunks exceeds kMaxReductionGroups, exercising group sizes > 1.
  constexpr std::size_t kChunks = 1200;
  constexpr std::size_t kDims = 3;
  const auto chunk_fn = [](std::size_t c, protocol::MeanAggregator* scratch) {
    Rng rng(ChunkSeed(17, c));
    for (int i = 0; i < 5; ++i) {
      scratch->Consume(static_cast<std::uint32_t>(rng.UniformInt(kDims)),
                       rng.Uniform(-1.0, 1.0));
    }
    return Status::OK();
  };
  const auto serial =
      protocol::MeanAggregator::ReduceChunks(kDims, mech::DomainMap(), kChunks,
                                             1, chunk_fn)
          .value();
  for (const std::size_t workers : {2u, 7u, 16u}) {
    const auto parallel =
        protocol::MeanAggregator::ReduceChunks(kDims, mech::DomainMap(),
                                               kChunks, workers, chunk_fn)
            .value();
    EXPECT_EQ(serial.EstimatedMean(), parallel.EstimatedMean()) << workers;
    EXPECT_EQ(serial.TotalReports(), parallel.TotalReports()) << workers;
  }
  EXPECT_EQ(serial.TotalReports(), static_cast<std::int64_t>(kChunks * 5));
}

TEST(ReduceChunksTest, PropagatesChunkFailures) {
  const auto failing = [](std::size_t c, protocol::MeanAggregator*) {
    return c == 600 ? Status::Internal("chunk 600 failed") : Status::OK();
  };
  const auto result = protocol::MeanAggregator::ReduceChunks(
      2, mech::DomainMap(), 1000, 4, failing);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("chunk 600"), std::string::npos);
}

freq::CategoricalDataset LaneTestDataset(std::size_t users) {
  Rng rng(21);
  const auto schema = freq::CategoricalSchema::Create({3, 4, 2}).value();
  return freq::GenerateCategorical(users, schema, 0.8, &rng).value();
}

TEST(FreqLanesTest, V2EstimatesInvariantToThreadCount) {
  const auto ds = LaneTestDataset(9000);  // Spans three 4096-user chunks.
  for (const std::size_t report_dims : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(report_dims);
    freq::FrequencyOptions opts;
    opts.total_epsilon = 2.0;
    opts.seed = 33;
    opts.report_dims = report_dims;
    opts.num_threads = 1;
    const auto mech = mech::MakeMechanism("piecewise").value();
    const auto serial = freq::RunFrequencyEstimation(ds, mech, opts).value();
    for (const std::size_t threads : {0u, 2u, 5u, 16u}) {
      freq::FrequencyOptions parallel = opts;
      parallel.num_threads = threads;
      const auto p = freq::RunFrequencyEstimation(ds, mech, parallel).value();
      EXPECT_EQ(serial.raw, p.raw) << threads;
      EXPECT_EQ(serial.recalibrated, p.recalibrated) << threads;
      EXPECT_EQ(serial.mse_raw, p.mse_raw) << threads;
    }
  }
}

TEST(FreqLanesTest, V2TracksTruthAtGenerousBudget) {
  Rng rng(5);
  const auto ds =
      freq::GenerateCategorical(40000,
                                freq::CategoricalSchema::Create({4}).value(),
                                1.0, &rng)
          .value();
  freq::FrequencyOptions opts;
  opts.total_epsilon = 8.0;
  opts.seed = 6;
  for (const auto name : {"laplace", "piecewise", "duchi"}) {
    const auto result =
        freq::RunFrequencyEstimation(ds, mech::MakeMechanism(name).value(),
                                     opts)
            .value();
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(result.raw[0][k], result.true_frequencies[0][k], 0.05)
          << name << " k=" << k;
    }
  }
}

// PR 2 era outputs of the scalar single-stream pipeline (captured before
// the lane path landed): dataset = GenerateCategorical(400, {3, 4, 2},
// zipf 0.8, Rng(21)), eps = 1, seed = 33, no clip/normalize.
TEST(FreqLanesTest, V1ScalarSeedsReproducePreLaneEstimates) {
  const auto ds = LaneTestDataset(400);
  freq::FrequencyOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 33;
  opts.seed_scheme = SeedScheme::kV1Scalar;
  opts.clip_and_normalize = false;

  const std::vector<double> laplace_raw = {
      0.091902023650346942, 0.13046344395811921, 1.2710251643470933,
      0.36898703054450011,  -0.33265810096653325, 0.40984347408099725,
      0.35265028879640836,  1.037928008687075,    1.0000294042557352};
  const auto laplace =
      freq::RunFrequencyEstimation(ds, mech::MakeMechanism("laplace").value(),
                                   opts)
          .value();
  ASSERT_EQ(Flatten(laplace.raw), laplace_raw);
  EXPECT_EQ(laplace.mse_raw, 0.25552032909545169);
  EXPECT_EQ(laplace.mse_recalibrated, 0.13246250000000001);

  const std::vector<double> square_wave_raw = {
      0.53756705080929168, 0.49971241183148957, 0.44487386343600965,
      0.47446824106554203, 0.48453407790134212, 0.51590712524998572,
      0.51696609774091451, 0.49306081143665537, 0.46191591735608406};
  const std::vector<double> square_wave_recal = {
      0.42093890830267722, 0.41742274213458019, 0.31207187758404037,
      0.36892592205330238, 0.38826349834048973, 0.4192301492085454,
      0.41931369191830015, 0.40464428842375488, 0.34481153183690061};
  const auto square_wave =
      freq::RunFrequencyEstimation(
          ds, mech::MakeMechanism("square_wave").value(), opts)
          .value();
  ASSERT_EQ(Flatten(square_wave.raw), square_wave_raw);
  ASSERT_EQ(Flatten(square_wave.recalibrated), square_wave_recal);
  EXPECT_EQ(square_wave.mse_raw, 0.047033748211205623);
  EXPECT_EQ(square_wave.mse_recalibrated, 0.025191549590640315);
}

// v2 sampled outputs captured from the PR 4 build (one lane span and one
// scatter per user): the batched v3 rewrite must leave the legacy scheme
// reproducing them bit for bit, through the shared per-worker scratch
// and the bulk one-hot expansion. Dataset = LaneTestDataset(9000),
// eps = 2, seed = 33, m = 2, no clip/normalize.
TEST(FreqLanesTest, V2SampledSeedsReproducePr4Estimates) {
  const auto ds = LaneTestDataset(9000);
  freq::FrequencyOptions opts;
  opts.total_epsilon = 2.0;
  opts.seed = 33;
  opts.report_dims = 2;
  opts.seed_scheme = SeedScheme::kV2Lanes;
  opts.clip_and_normalize = false;

  const std::vector<std::uint64_t> piecewise_raw = {
      0x3fde7aa10dd14031ULL, 0x3fd0643240255479ULL, 0x3fd151fba9272318ULL,
      0x3fdf452fb4fa0bb7ULL, 0x3fd1a9b9bcabf451ULL, 0x3fc65a828b5fd1b4ULL,
      0x3fc2dab08ea3e2a8ULL, 0x3fe3769c87977f1bULL, 0x3fd78ea392301833ULL};
  const auto piecewise =
      freq::RunFrequencyEstimation(ds, mech::MakeMechanism("piecewise").value(),
                                   opts)
          .value();
  EXPECT_EQ(BitsOf(Flatten(piecewise.raw)), piecewise_raw);
  EXPECT_EQ(Bits(piecewise.mse_raw), 0x3f4ba9e4924cadbdULL);

  const std::vector<std::uint64_t> laplace_raw = {
      0x3fd975507413dbf1ULL, 0x3fd1cb946c23e3b4ULL, 0x3fcda279052ad70eULL,
      0x3fdbdaae3b6caf67ULL, 0x3fd1ed10ef571226ULL, 0x3fbf809147dc7a2cULL,
      0x3fc1b46910fa5cd6ULL, 0x3fe2f359dac9f7eaULL, 0x3fd88291a03fa05aULL};
  const auto laplace =
      freq::RunFrequencyEstimation(ds, mech::MakeMechanism("laplace").value(),
                                   opts)
          .value();
  EXPECT_EQ(BitsOf(Flatten(laplace.raw)), laplace_raw);
  EXPECT_EQ(Bits(laplace.mse_raw), 0x3f5bdbe6332616bfULL);
}

// v3 sampled outputs recorded on an AVX2 build (same config as the v2
// goldens above, so the two tables contrast the layouts directly); the
// release-nosimd CI job replays them on the portable scalar kernels.
TEST(FreqLanesTest, V3SampledGoldensPinTheBatchedLayout) {
  const auto ds = LaneTestDataset(9000);
  freq::FrequencyOptions opts;
  opts.total_epsilon = 2.0;
  opts.seed = 33;
  opts.report_dims = 2;
  opts.seed_scheme = SeedScheme::kV3Batched;
  opts.clip_and_normalize = false;

  const std::vector<std::uint64_t> piecewise_raw = {
      0x3fdd7aa6bb52a143ULL, 0x3fd363e34d74daa2ULL, 0x3fcb44bc20d56e3eULL,
      0x3fdddbcb16b817b7ULL, 0x3fcc788b185954b2ULL, 0x3fc47b2888120736ULL,
      0x3fc3639a5adb3dcaULL, 0x3fe4be98345b0aa9ULL, 0x3fd5a36d48df4954ULL};
  const auto piecewise =
      freq::RunFrequencyEstimation(ds, mech::MakeMechanism("piecewise").value(),
                                   opts)
          .value();
  EXPECT_EQ(BitsOf(Flatten(piecewise.raw)), piecewise_raw);
  EXPECT_EQ(Bits(piecewise.mse_raw), 0x3f3ccb3dc9c6767eULL);

  const std::vector<std::uint64_t> laplace_raw = {
      0x3fdd029833466cd2ULL, 0x3fcfdce62edcbfe2ULL, 0x3fc88574051d4592ULL,
      0x3fda70d815c80cb1ULL, 0x3fd02815fbfe1cf7ULL, 0x3fc1fc2087fe502eULL,
      0x3fb50744d48a52c4ULL, 0x3fe29bb9d1442242ULL, 0x3fd5b91cf923bb8eULL};
  const auto laplace =
      freq::RunFrequencyEstimation(ds, mech::MakeMechanism("laplace").value(),
                                   opts)
          .value();
  EXPECT_EQ(BitsOf(Flatten(laplace.raw)), laplace_raw);
  EXPECT_EQ(Bits(laplace.mse_raw), 0x3f56c02fd873b2fcULL);
}

TEST(FreqLanesTest, V3SampledEstimatesInvariantToThreadCount) {
  const auto ds = LaneTestDataset(9000);  // Spans three 4096-user chunks.
  freq::FrequencyOptions opts;
  opts.total_epsilon = 2.0;
  opts.seed = 33;
  opts.report_dims = 2;
  opts.seed_scheme = SeedScheme::kV3Batched;
  opts.num_threads = 1;
  const auto mech = mech::MakeMechanism("piecewise").value();
  const auto serial = freq::RunFrequencyEstimation(ds, mech, opts).value();
  for (const std::size_t threads : {0u, 2u, 5u, 16u}) {
    freq::FrequencyOptions parallel = opts;
    parallel.num_threads = threads;
    const auto p = freq::RunFrequencyEstimation(ds, mech, parallel).value();
    EXPECT_EQ(serial.raw, p.raw) << threads;
    EXPECT_EQ(serial.recalibrated, p.recalibrated) << threads;
    EXPECT_EQ(serial.mse_raw, p.mse_raw) << threads;
  }
}

TEST(FreqLanesTest, V3BatchedIsTheDefaultScheme) {
  EXPECT_EQ(freq::FrequencyOptions{}.seed_scheme, SeedScheme::kV3Batched);
}

TEST(FreqLanesTest, UnreportedDimensionIsAProperError) {
  // One user reporting one of three dimensions: two dimensions are
  // guaranteed unreported, which used to silently model r = 1.
  const auto ds = LaneTestDataset(1);
  for (const SeedScheme scheme :
       {SeedScheme::kV1Scalar, SeedScheme::kV2Lanes,
       SeedScheme::kV3Batched}) {
    freq::FrequencyOptions opts;
    opts.total_epsilon = 1.0;
    opts.report_dims = 1;
    opts.seed_scheme = scheme;
    const auto result = freq::RunFrequencyEstimation(
        ds, mech::MakeMechanism("laplace").value(), opts);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("received no reports"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace hdldp
