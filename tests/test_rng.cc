// Unit and statistical tests for the deterministic RNG and its samplers.
//
// Statistical checks use wide tolerances (5+ standard errors) so they are
// deterministic in practice while still catching real sampler bugs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace hdldp {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    m.Add(u);
  }
  EXPECT_NEAR(m.Mean(), 0.5, 0.005);
  EXPECT_NEAR(m.Variance(), 1.0 / 12.0, 0.002);
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform(-3.5, 2.0);
    ASSERT_GE(u, -3.5);
    ASSERT_LT(u, 2.0);
  }
}

TEST(RngTest, UniformIntIsUnbiased) {
  Rng rng(13);
  constexpr std::uint64_t kBound = 7;
  std::vector<int> counts(kBound, 0);
  constexpr int kDraws = 140000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(kBound)];
  const double expected = static_cast<double>(kDraws) / kBound;
  for (const int c : counts) {
    // ~5 sigma of a binomial count.
    EXPECT_NEAR(c, expected, 5.0 * std::sqrt(expected));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(14);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, LaplaceMomentsMatch) {
  Rng rng(15);
  const double scale = 1.7;
  RunningMoments m;
  for (int i = 0; i < 400000; ++i) m.Add(rng.Laplace(scale));
  EXPECT_NEAR(m.Mean(), 0.0, 0.02);
  // Var = 2 b^2.
  EXPECT_NEAR(m.Variance(), 2.0 * scale * scale, 0.1);
  // Laplace excess kurtosis is 3.
  EXPECT_NEAR(m.ExcessKurtosis(), 3.0, 0.3);
}

TEST(RngTest, ExponentialMomentsMatch) {
  Rng rng(16);
  const double rate = 2.5;
  RunningMoments m;
  for (int i = 0; i < 300000; ++i) {
    const double x = rng.Exponential(rate);
    ASSERT_GE(x, 0.0);
    m.Add(x);
  }
  EXPECT_NEAR(m.Mean(), 1.0 / rate, 0.005);
  EXPECT_NEAR(m.Variance(), 1.0 / (rate * rate), 0.01);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(17);
  RunningMoments m;
  for (int i = 0; i < 400000; ++i) m.Add(rng.Gaussian());
  EXPECT_NEAR(m.Mean(), 0.0, 0.01);
  EXPECT_NEAR(m.Variance(), 1.0, 0.02);
  EXPECT_NEAR(m.Skewness(), 0.0, 0.05);
  EXPECT_NEAR(m.ExcessKurtosis(), 0.0, 0.1);
}

TEST(RngTest, GaussianShiftScale) {
  Rng rng(18);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.Gaussian(3.0, 0.5));
  EXPECT_NEAR(m.Mean(), 3.0, 0.01);
  EXPECT_NEAR(m.StdDev(), 0.5, 0.01);
}

TEST(RngTest, PoissonSmallMean) {
  Rng rng(19);
  const double mean = 4.2;
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) {
    m.Add(static_cast<double>(rng.Poisson(mean)));
  }
  EXPECT_NEAR(m.Mean(), mean, 0.05);
  EXPECT_NEAR(m.Variance(), mean, 0.15);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(20);
  const double mean = 80.0;
  RunningMoments m;
  for (int i = 0; i < 100000; ++i) {
    const auto x = rng.Poisson(mean);
    ASSERT_GE(x, 0);
    m.Add(static_cast<double>(x));
  }
  EXPECT_NEAR(m.Mean(), mean, 0.3);
  EXPECT_NEAR(m.Variance(), mean, 2.5);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(21);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, GeometricMatchesDistribution) {
  Rng rng(22);
  const double p = 0.25;
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) {
    m.Add(static_cast<double>(rng.Geometric(p)));
  }
  // Failures-before-success: mean (1-p)/p, var (1-p)/p^2.
  EXPECT_NEAR(m.Mean(), (1.0 - p) / p, 0.05);
  EXPECT_NEAR(m.Variance(), (1.0 - p) / (p * p), 0.5);
  EXPECT_EQ(rng.Geometric(1.0), 0);
}

TEST(RngTest, SampleWithoutReplacementIsValid) {
  Rng rng(23);
  constexpr std::size_t kD = 50;
  constexpr std::size_t kM = 13;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint32_t> picks;
    rng.SampleWithoutReplacement(kD, kM, &picks);
    ASSERT_EQ(picks.size(), kM);
    std::set<std::uint32_t> unique(picks.begin(), picks.end());
    ASSERT_EQ(unique.size(), kM) << "duplicate index sampled";
    for (const auto p : picks) ASSERT_LT(p, kD);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(24);
  std::vector<std::uint32_t> picks;
  rng.SampleWithoutReplacement(8, 8, &picks);
  std::set<std::uint32_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 8u);
}

TEST(RngTest, SampleWithoutReplacementUniformInclusion) {
  // Every index should be included with probability m/d.
  Rng rng(25);
  constexpr std::size_t kD = 20;
  constexpr std::size_t kM = 5;
  constexpr int kTrials = 40000;
  std::vector<int> counts(kD, 0);
  std::vector<std::uint32_t> picks;
  for (int trial = 0; trial < kTrials; ++trial) {
    picks.clear();
    rng.SampleWithoutReplacement(kD, kM, &picks);
    for (const auto p : picks) ++counts[p];
  }
  const double expected = kTrials * static_cast<double>(kM) / kD;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, 6.0 * std::sqrt(expected));
  }
}

TEST(RngTest, SampleWithoutReplacementAppends) {
  Rng rng(26);
  std::vector<std::uint32_t> picks = {99};
  rng.SampleWithoutReplacement(10, 3, &picks);
  EXPECT_EQ(picks.size(), 4u);
  EXPECT_EQ(picks[0], 99u);
}

TEST(RngTest, BatchSamplerMatchesScalarFloydDrawForDraw) {
  // Unsorted batch output must equal successive scalar calls exactly
  // (same picks in the same order), and leave the generator at the same
  // stream position — the batch sampler only hoists the membership
  // probe, it never changes the draw sequence.
  constexpr std::size_t kD = 37;
  constexpr std::size_t kM = 9;
  constexpr std::size_t kCount = 200;
  Rng batch_rng(7);
  Rng scalar_rng(7);
  BatchSamplerScratch scratch;
  std::vector<std::uint32_t> batched;
  batch_rng.SampleWithoutReplacementBatch(kD, kM, kCount, /*sorted=*/false,
                                          &scratch, &batched);
  std::vector<std::uint32_t> scalar;
  for (std::size_t u = 0; u < kCount; ++u) {
    scalar_rng.SampleWithoutReplacement(kD, kM, &scalar);
  }
  EXPECT_EQ(batched, scalar);
  EXPECT_EQ(batch_rng.Next(), scalar_rng.Next());
}

TEST(RngTest, BatchSamplerSortedIsThePerUserSortedPermutation) {
  constexpr std::size_t kD = 500;
  constexpr std::size_t kM = 50;
  constexpr std::size_t kCount = 64;
  Rng sorted_rng(11);
  Rng unsorted_rng(11);
  BatchSamplerScratch scratch_a;
  BatchSamplerScratch scratch_b;
  std::vector<std::uint32_t> sorted;
  std::vector<std::uint32_t> unsorted;
  sorted_rng.SampleWithoutReplacementBatch(kD, kM, kCount, true, &scratch_a,
                                           &sorted);
  unsorted_rng.SampleWithoutReplacementBatch(kD, kM, kCount, false, &scratch_b,
                                             &unsorted);
  ASSERT_EQ(sorted.size(), kM * kCount);
  // Same draws either way, so the stream positions agree.
  EXPECT_EQ(sorted_rng.Next(), unsorted_rng.Next());
  for (std::size_t u = 0; u < kCount; ++u) {
    const auto begin = sorted.begin() + static_cast<std::ptrdiff_t>(u * kM);
    EXPECT_TRUE(std::is_sorted(begin, begin + kM)) << "user " << u;
    // Strictly sorted == sorted + distinct.
    EXPECT_EQ(std::adjacent_find(begin, begin + kM), begin + kM);
    std::vector<std::uint32_t> user_sorted(
        unsorted.begin() + static_cast<std::ptrdiff_t>(u * kM),
        unsorted.begin() + static_cast<std::ptrdiff_t>((u + 1) * kM));
    std::sort(user_sorted.begin(), user_sorted.end());
    EXPECT_TRUE(std::equal(begin, begin + kM, user_sorted.begin()))
        << "user " << u;
    for (std::size_t k = 0; k < kM; ++k) {
      EXPECT_LT(begin[k], kD);
    }
  }
}

TEST(RngTest, BatchSamplerFullSetNeedsNoDrawsAndAppends) {
  Rng rng(3);
  Rng untouched(3);
  BatchSamplerScratch scratch;
  std::vector<std::uint32_t> picks = {1234};
  rng.SampleWithoutReplacementBatch(6, 6, 3, true, &scratch, &picks);
  ASSERT_EQ(picks.size(), 1 + 3 * 6);
  EXPECT_EQ(picks[0], 1234u);
  for (std::size_t u = 0; u < 3; ++u) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(picks[1 + u * 6 + j], j);
    }
  }
  EXPECT_EQ(rng.Next(), untouched.Next());
}

TEST(RngTest, BatchSamplerScratchReusesAcrossShapes) {
  // One scratch serving different (d, m) shapes must keep producing
  // valid samples: the bitmask is left fully cleared between users.
  Rng rng(19);
  BatchSamplerScratch scratch;
  std::vector<std::uint32_t> out;
  rng.SampleWithoutReplacementBatch(1000, 13, 20, true, &scratch, &out);
  out.clear();
  rng.SampleWithoutReplacementBatch(10, 3, 50, true, &scratch, &out);
  ASSERT_EQ(out.size(), 150u);
  for (std::size_t u = 0; u < 50; ++u) {
    const auto begin = out.begin() + static_cast<std::ptrdiff_t>(u * 3);
    EXPECT_TRUE(std::is_sorted(begin, begin + 3));
    EXPECT_EQ(std::adjacent_find(begin, begin + 3), begin + 3);
    EXPECT_LT(begin[2], 10u);
  }
}

TEST(RngTest, SplitMix64KnownSequenceIsStable) {
  // Regression anchor: document the stream so accidental engine changes
  // surface as test failures (benchmarks depend on reproducibility).
  std::uint64_t state = 0;
  const std::uint64_t first = SplitMix64(&state);
  const std::uint64_t second = SplitMix64(&state);
  EXPECT_NE(first, second);
  std::uint64_t state2 = 0;
  EXPECT_EQ(SplitMix64(&state2), first);
}

}  // namespace
}  // namespace hdldp
