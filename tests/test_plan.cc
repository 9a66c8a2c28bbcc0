// Tests of the prepared sampler plans (mech/plan.h). A plan's operator()
// is its mechanism's one scalar sampler body: Mechanism::Perturb is a
// one-off wrapper over it, and every scalar driver (the kV1Scalar
// pipelines, Client::ReportTo, the service's report stream) runs it
// through std::visit or PerturbOne. The scalar streams are pinned to
// digests recorded from the hand-written per-mechanism Perturb bodies the
// plans replaced, across an eps grid that includes the tiny
// per-dimension budgets of high-d runs (eps/m = 0.001). Whether those
// streams follow the mechanisms' analytic output laws is
// tests/test_sampler_audit.cc's job.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/math.h"
#include "common/rng.h"
#include "mech/mechanism.h"
#include "mech/plan.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"

namespace hdldp {
namespace mech {
namespace {

// The eps grid: tiny high-d budgets (total eps 0.1 over m = 100, the
// paper's Section IV-C case study), moderate, large budgets (4.0 drives
// Hybrid into its mixed alpha > 0 regime), and extreme budgets where
// hoisted probabilities round to exactly 0 or 1 (eps = 40 rounds Duchi's
// ProbPositive to 0/1 near |t| = 1; eps = 100 rounds Piecewise's band
// mass, Staircase's inner_prob, and Hybrid's alpha to 1), exercising
// Bernoulli's no-draw shortcuts in the plan bodies.
const double kEpsGrid[] = {0.001, 0.01, 0.05, 0.5, 1.0, 4.0, 40.0, 100.0};
constexpr std::size_t kNumEps = std::size(kEpsGrid);

std::vector<double> NativeInputs(const Mechanism& mechanism,
                                 std::size_t count) {
  const Interval domain = mechanism.InputDomain();
  std::vector<double> ts(count);
  for (std::size_t i = 0; i < count; ++i) {
    ts[i] = domain.lo + domain.Width() * static_cast<double>(i) /
                            static_cast<double>(count - 1);
  }
  return ts;
}

// FNV-1a over the outputs' bit patterns.
std::uint64_t StreamDigest(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Digest of the 301-input scalar stream under Rng(0x91234), one per
// kEpsGrid budget, recorded from the hand-written Perturb bodies before
// they were folded into the plans.
struct ScalarGolden {
  const char* mechanism;
  std::uint64_t digest[kNumEps];
};

const ScalarGolden kScalarGoldens[] = {
    {"duchi",
     {0xeb3bc25281521fdaULL, 0x4a2773512bb77feeULL, 0xea9115e393715efdULL,
      0x218d838c25ccfed9ULL, 0x5b63beb064c23b29ULL, 0xd4a8de8968be0c11ULL,
      0xc87768a8894d2e39ULL, 0x21a064910f0f02f8ULL}},
    {"hybrid",
     {0xeb3bc25281521fdaULL, 0x4a2773512bb77feeULL, 0xea9115e393715efdULL,
      0x218d838c25ccfed9ULL, 0xfd20b0ae19dd3815ULL, 0xebea0002a2ce7b42ULL,
      0xce55a2269345e25dULL, 0x4f0a318b973eaa8eULL}},
    {"laplace",
     {0x74ca6c81e85e4508ULL, 0xb1fef58b4d927aa7ULL, 0x9350f3fe17d5ea22ULL,
      0x613bd4c352fdd9b9ULL, 0xb77687e52b1db3d9ULL, 0xe7fd73f66b9a2bd5ULL,
      0x39f72cf67c957d01ULL, 0x6abff2f734e5e043ULL}},
    {"piecewise",
     {0x2fa9c67fbb66dd5bULL, 0x857c1ba5ded7aaafULL, 0x37bb580376ad4f58ULL,
      0xe857875cad6e3b86ULL, 0x3d1ea6be7c641bdfULL, 0x233ceb9166b3c7b0ULL,
      0x70e0e1af2ff16a53ULL, 0x4f0a318b973eaa8eULL}},
    {"scdf",
     {0xd7970cf4c29dd3c9ULL, 0x0c8a2846ab42147bULL, 0x0c90338ec61e0d49ULL,
      0xc2b6442fc20196eaULL, 0x408cecaee3f7a62aULL, 0xb7603c08c9a58710ULL,
      0x1c5ddd055d87d6d4ULL, 0x1c5ddd055d87d6d4ULL}},
    {"square_wave",
     {0xecaa6fab22c23a1fULL, 0x3628edc1c7cf8962ULL, 0xfcee71eb8d8963aeULL,
      0xfbfa8853315c3c28ULL, 0xcc51be0b7030a46cULL, 0x641d88a5c8e38960ULL,
      0x7b2b3b9e1307970aULL, 0x7854175d490a5fcaULL}},
    {"staircase",
     {0x816c297f2295bffbULL, 0x0f8fa3d70a6f8448ULL, 0xf9d77c86b87ac2caULL,
      0x9a623bf53fe261d8ULL, 0xf93b7f70c67aa423ULL, 0x73d317fa196a6d89ULL,
      0x51c43902b8bdc2b8ULL, 0xd8387ed33fe1721bULL}},
};

TEST(SamplerPlanTest, BitIdenticalToScalarForEveryMechanism) {
  ASSERT_EQ(std::size(kScalarGoldens), RegisteredMechanismNames().size());
  for (const ScalarGolden& golden : kScalarGoldens) {
    SCOPED_TRACE(golden.mechanism);
    const auto mechanism = MakeMechanism(golden.mechanism).value();
    const std::vector<double> ts = NativeInputs(*mechanism, 301);
    for (std::size_t e = 0; e < kNumEps; ++e) {
      const double eps = kEpsGrid[e];
      SCOPED_TRACE(eps);
      ASSERT_TRUE(mechanism->ValidateBudget(eps).ok());
      const SamplerPlan plan = mechanism->MakePlan(eps);

      // Per-value PerturbOne path: the reference stream.
      Rng one_rng(0x9'1234);
      std::vector<double> scalar(ts.size());
      for (std::size_t i = 0; i < ts.size(); ++i) {
        scalar[i] = PerturbOne(plan, ts[i], &one_rng);
      }
      EXPECT_EQ(StreamDigest(scalar), golden.digest[e]);
      const std::uint64_t next_draw = one_rng.Next();

      // The one-off Perturb wrapper.
      Rng wrapper_rng(0x9'1234);
      for (std::size_t i = 0; i < ts.size(); ++i) {
        ASSERT_EQ(scalar[i], mechanism->Perturb(ts[i], eps, &wrapper_rng))
            << i;
      }
      EXPECT_EQ(next_draw, wrapper_rng.Next());
    }
  }
}

TEST(SamplerPlanTest, PlanIsReusableAcrossCalls) {
  // A plan prepared once must keep producing the freshly prepared stream
  // on every later draw — the whole point of hoisting it out of the loop.
  const auto mechanism = MakeMechanism("piecewise").value();
  const SamplerPlan plan = mechanism->MakePlan(0.02);
  const std::vector<double> ts = NativeInputs(*mechanism, 64);
  Rng fresh_rng(77);
  Rng plan_rng(77);
  for (int block = 0; block < 5; ++block) {
    for (const double t : ts) {
      ASSERT_EQ(mechanism->Perturb(t, 0.02, &fresh_rng),
                PerturbOne(plan, t, &plan_rng));
    }
  }
}

}  // namespace
}  // namespace mech

namespace protocol {
namespace {

// The textbook Neumaier step, branch and all. The aggregator's fold entry
// points share one select-form step (common/math.h), so they are pinned
// here against a body they do not share.
void BranchingNeumaierAdd(double x, NeumaierSum* acc) {
  const double s = acc->RawSum();
  double c = acc->Compensation();
  const double t = s + x;
  if (std::fabs(s) >= std::fabs(x)) {
    c += (s - t) + x;
  } else {
    c += (x - t) + s;
  }
  acc->RestoreRaw(t, c);
}

// Per dimension one NeumaierSum and a report count; Bytes() writes them
// in MeanAggregator::SerializeState's layout.
struct ReferenceState {
  explicit ReferenceState(std::size_t d) : sums(d), counts(d, 0) {}

  void Add(std::size_t j, double x) {
    BranchingNeumaierAdd(x, &sums[j]);
    ++counts[j];
  }

  std::vector<unsigned char> Bytes() const {
    std::vector<unsigned char> bytes;
    ByteWriter out(&bytes);
    for (std::size_t j = 0; j < sums.size(); ++j) {
      out.F64(sums[j].RawSum());
      out.F64(sums[j].Compensation());
      out.U64(static_cast<std::uint64_t>(counts[j]));
    }
    return bytes;
  }

  std::vector<NeumaierSum> sums;
  std::vector<std::int64_t> counts;
};

std::vector<unsigned char> StateBytes(const MeanAggregator& aggregator) {
  std::vector<unsigned char> bytes;
  aggregator.SerializeState(&bytes);
  return bytes;
}

// rows x d values, row-major. Dimension j draws from pool j % 5: signed
// zeros, a huge exponent spread, a cancellation pool whose column stays
// finite, ±inf, and NaN.
std::vector<double> EdgeCaseRows(std::size_t rows, std::size_t d,
                                 std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> pools = {
      {0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0},
      {1e300, -1e300, 1e-300, -1e-300, 1.0, 4.9e-324, -4.9e-324},
      {1e16, -1e16, 1.0, -1.0, 3.0, 1e-16, -1e-16, 0.1},
      {1.0, -2.5, 7.0, kInf, -kInf, 1e308},
      {0.25, -3.0, nan, 1e-300, -0.0, 9.0},
  };
  Rng rng(seed);
  std::vector<double> values(rows * d);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      const auto& pool = pools[j % pools.size()];
      values[i * d + j] = pool[rng.Next() % pool.size()];
    }
  }
  return values;
}

const std::size_t kFoldDims[] = {1, 3, 4, 5, 7, 200, 1024};
constexpr std::size_t kFoldRows = 61;
// Uneven row batches summing to kFoldRows, an empty one included.
const std::size_t kRowBatches[] = {1, 7, 0, 20, 33};

TEST(ConsumeDenseTest, MatchesScalarConsumeBitExactly) {
  // Every fold entry point leaves the same state bytes as a per-dimension
  // textbook Neumaier fold of the same values in user order, and the two
  // merges the same bytes as per-dimension NeumaierSum merges.
  for (const std::size_t d : kFoldDims) {
    SCOPED_TRACE("d " + std::to_string(d));
    const std::vector<double> values = EdgeCaseRows(kFoldRows, d, d);
    const std::span<const double> all(values);
    ReferenceState reference(d);
    for (std::size_t k = 0; k < values.size(); ++k) {
      reference.Add(k % d, values[k]);
    }
    const std::vector<unsigned char> expected = reference.Bytes();
    // The pools reach every edge case: a compensated cancellation column
    // that stays finite, an infinite one and a NaN one.
    if (d >= 5) {
      EXPECT_NE(reference.sums[2].Compensation(), 0.0);
      EXPECT_TRUE(std::isfinite(reference.sums[2].Total()));
      EXPECT_FALSE(std::isfinite(reference.sums[3].Total()));
      EXPECT_TRUE(std::isnan(reference.sums[4].Total()));
    }

    auto dense = MeanAggregator::Create(d, mech::DomainMap()).value();
    std::size_t row = 0;
    for (const std::size_t batch : kRowBatches) {
      ASSERT_TRUE(dense.ConsumeDense(all.subspan(row * d, batch * d)).ok());
      row += batch;
    }
    ASSERT_EQ(row, kFoldRows);
    EXPECT_EQ(StateBytes(dense), expected) << "ConsumeDense";

    auto scalar = MeanAggregator::Create(d, mech::DomainMap()).value();
    for (std::size_t k = 0; k < values.size(); ++k) {
      scalar.Consume(static_cast<std::uint32_t>(k % d), values[k]);
    }
    EXPECT_EQ(StateBytes(scalar), expected) << "Consume";

    // Scattered blocks cut across rows at uneven points.
    std::vector<std::uint32_t> dims(values.size());
    for (std::size_t k = 0; k < dims.size(); ++k) {
      dims[k] = static_cast<std::uint32_t>(k % d);
    }
    auto scattered = MeanAggregator::Create(d, mech::DomainMap()).value();
    std::size_t entry = 0;
    for (const std::size_t batch : kRowBatches) {
      const std::size_t size = std::min(batch * d + 3, values.size() - entry);
      ASSERT_TRUE(scattered
                      .ConsumeScattered(std::span(dims).subspan(entry, size),
                                        all.subspan(entry, size))
                      .ok());
      entry += size;
    }
    ASSERT_TRUE(scattered
                    .ConsumeScattered(std::span(dims).subspan(entry),
                                      all.subspan(entry))
                    .ok());
    EXPECT_EQ(StateBytes(scattered), expected) << "ConsumeScattered";

    // One report per user, its entries in reverse dimension order: only
    // the order within each dimension matters.
    auto reported = MeanAggregator::Create(d, mech::DomainMap()).value();
    std::vector<DimensionReport> entries(d);
    for (std::size_t i = 0; i < kFoldRows; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        entries[d - 1 - j] = {static_cast<std::uint32_t>(j), values[i * d + j]};
      }
      ASSERT_TRUE(reported.ConsumeReport(entries).ok());
    }
    EXPECT_EQ(StateBytes(reported), expected) << "ConsumeReport";

    // A rejected block leaves the state as it was.
    if (d > 1) {
      EXPECT_FALSE(dense.ConsumeDense(all.first(d + 1)).ok());
    }
    const std::uint32_t out_of_range[] = {0, static_cast<std::uint32_t>(d)};
    EXPECT_FALSE(
        scattered.ConsumeScattered(out_of_range, all.first(2)).ok());
    EXPECT_EQ(StateBytes(dense), expected);
    EXPECT_EQ(StateBytes(scattered), expected);

    // Two halves folded apart, then combined: Merge folds the other side's
    // Total() (NeumaierSum::Merge), MergeState its raw pair
    // (NeumaierSum::MergeState).
    const std::size_t split = 23 * d;
    ReferenceState merged(d);
    ReferenceState right(d);
    for (std::size_t k = 0; k < values.size(); ++k) {
      (k < split ? merged : right).Add(k % d, values[k]);
    }
    ReferenceState merged_state = merged;
    for (std::size_t j = 0; j < d; ++j) {
      merged.sums[j].Merge(right.sums[j]);
      merged_state.sums[j].MergeState(right.sums[j]);
      merged.counts[j] += right.counts[j];
      merged_state.counts[j] += right.counts[j];
    }
    auto merge = MeanAggregator::Create(d, mech::DomainMap()).value();
    auto right_agg = MeanAggregator::Create(d, mech::DomainMap()).value();
    ASSERT_TRUE(merge.ConsumeDense(all.first(split)).ok());
    ASSERT_TRUE(right_agg.ConsumeDense(all.subspan(split)).ok());
    auto merge_state = merge;
    ASSERT_TRUE(merge.Merge(right_agg).ok());
    EXPECT_EQ(StateBytes(merge), merged.Bytes()) << "Merge";
    ASSERT_TRUE(merge_state.MergeState(right_agg).ok());
    EXPECT_EQ(StateBytes(merge_state), merged_state.Bytes()) << "MergeState";

    // Frequency oracles fold integer support counts as one partial sum
    // per dimension and batch; exact partials leave the per-entry state.
    Rng rng(d);
    std::vector<double> integers(kFoldRows * d);
    for (double& v : integers) v = static_cast<double>(rng.Next() % 4) - 1.0;
    ReferenceState per_entry(d);
    for (std::size_t k = 0; k < integers.size(); ++k) {
      per_entry.Add(k % d, integers[k]);
    }
    auto summed = MeanAggregator::Create(d, mech::DomainMap()).value();
    row = 0;
    for (const std::size_t batch : kRowBatches) {
      for (std::size_t j = 0; j < d; ++j) {
        double partial = 0.0;
        for (std::size_t i = row; i < row + batch; ++i) {
          partial += integers[i * d + j];
        }
        summed.ConsumeSum(static_cast<std::uint32_t>(j), partial,
                          static_cast<std::int64_t>(batch));
      }
      row += batch;
    }
    EXPECT_EQ(StateBytes(summed), per_entry.Bytes()) << "ConsumeSum";
  }
}

}  // namespace
}  // namespace protocol
}  // namespace hdldp
