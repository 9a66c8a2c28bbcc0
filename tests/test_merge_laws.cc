// Property tests pinning the merge laws of the state-exact aggregator
// merge (NeumaierSum::MergeState / MeanAggregator::MergeState) — the
// primitive the aggregation service builds its pane/window algebra on.
//
// The laws, at the observable level the service relies on:
//   * zero state is an exact identity (bit-level, via SerializeState)
//   * the merge is bit-commutative (bit-level)
//   * when every addition is exact (dyadic report values — the
//     compensation channel stays zero), any split of the stream folded
//     separately and merged, in any association order, is bit-identical
//     to one aggregator that consumed every report
//   * over realistic perturbed LDP report data the additions round, so
//     only a *fixed* merge order is reproducible; the merged estimate
//     then agrees with the single fold to within an ulp or two — and
//     the same split merged in the same order is bit-identical every
//     time, which is the invariant the service's deterministic group /
//     pane merge order actually builds on
//   * serialize + restore + merge is bit-identical to merging the live
//     states (the crash/restore boundary adds no rounding)
//   * counts are exact under any merge order
// Both mean-style dense data and freq-style one-hot expanded data are
// covered, duchi (discrete outputs) and piecewise (continuous outputs)
// both included.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"
#include "protocol/budget.h"
#include "protocol/client.h"

namespace hdldp {
namespace protocol {
namespace {

std::vector<unsigned char> StateBytes(const MeanAggregator& agg) {
  std::vector<unsigned char> bytes;
  agg.SerializeState(&bytes);
  return bytes;
}

MeanAggregator MakeAggregator(std::size_t dims) {
  return MeanAggregator::Create(dims, mech::DomainMap()).value();
}

// Realistic service traffic: every report is a bounded perturbed tuple
// from a real mechanism, exactly what pane aggregators fold.
std::vector<UserReport> MechanismReports(const std::string& mechanism,
                                         std::size_t n, std::size_t d,
                                         std::size_t m, std::uint64_t seed) {
  auto mech = mech::MakeMechanism(mechanism).value();
  ClientOptions options;
  options.total_epsilon = 1.0;
  options.report_dims = m;
  auto client = Client::Create(mech, d, options).value();
  Rng rng(seed);
  std::vector<UserReport> reports;
  reports.reserve(n);
  std::vector<double> tuple(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : tuple) v = rng.Uniform(-1.0, 1.0);
    reports.push_back(client.Report(tuple, &rng).value());
  }
  return reports;
}

// Dyadic traffic: every value is k / 1024 with |k| <= 1024, so every
// partial sum is exactly representable, every compensation term is zero,
// and MergeState is an exact homomorphism — the regime where merge-tree
// shape is provably invisible.
std::vector<UserReport> DyadicReports(std::size_t n, std::size_t d,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<UserReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    UserReport report;
    for (std::size_t j = 0; j < d; ++j) {
      const double k = static_cast<double>(rng.UniformInt(2049)) - 1024.0;
      report.entries.push_back(
          DimensionReport{static_cast<std::uint32_t>(j), k / 1024.0});
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

// ULP distance between two finite doubles of the same sign regime.
std::uint64_t UlpDistance(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  if ((ua >> 63) != (ub >> 63)) return a == b ? 0 : ~0ULL;
  return ua > ub ? ua - ub : ub - ua;
}

// Freq-style traffic: one-hot expanded entries over q * c dimensions.
std::vector<UserReport> OneHotReports(std::size_t n, std::size_t q,
                                      std::size_t c, std::uint64_t seed) {
  auto mech = mech::MakeMechanism("piecewise").value();
  const auto map =
      mech::DomainMap::Between({0.0, 1.0}, mech->InputDomain()).value();
  const double eps = BudgetAccountant::PerEntryBudget(2.0, q).value();
  Rng rng(seed);
  std::vector<UserReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    UserReport report;
    for (std::size_t j = 0; j < q; ++j) {
      const std::size_t answer = rng.UniformInt(c);
      for (std::size_t k = 0; k < c; ++k) {
        report.entries.push_back(DimensionReport{
            static_cast<std::uint32_t>(j * c + k),
            mech->Perturb(map.Forward(k == answer ? 1.0 : 0.0), eps, &rng)});
      }
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

MeanAggregator FoldAll(const std::vector<UserReport>& reports,
                       std::size_t dims) {
  MeanAggregator agg = MakeAggregator(dims);
  for (const UserReport& r : reports) {
    EXPECT_TRUE(agg.ConsumeReport(r).ok());
  }
  return agg;
}

MeanAggregator FoldRange(const std::vector<UserReport>& reports,
                         std::size_t dims, std::size_t begin,
                         std::size_t end) {
  MeanAggregator agg = MakeAggregator(dims);
  for (std::size_t i = begin; i < end; ++i) {
    EXPECT_TRUE(agg.ConsumeReport(reports[i]).ok());
  }
  return agg;
}

TEST(NeumaierMergeStateTest, ZeroIsExactIdentityAndMergeIsExact) {
  Rng rng(7);
  NeumaierSum sum;
  for (int i = 0; i < 1000; ++i) sum.Add(rng.Uniform(-1.0, 1.0));
  const double before = sum.Total();
  NeumaierSum zero;
  sum.MergeState(zero);
  // Exact identity: TwoSum with b == 0 contributes s == a, e == 0.
  EXPECT_EQ(before, sum.Total());
  zero.MergeState(sum);
  EXPECT_EQ(before, zero.Total());
}

TEST(NeumaierMergeStateTest, TotalMatchesSingleFoldOverSplits) {
  Rng rng(11);
  std::vector<double> values(5000);
  for (double& v : values) v = rng.Uniform(-1.0, 1.0);
  NeumaierSum single;
  for (const double v : values) single.Add(v);
  for (const std::size_t pieces : {2u, 3u, 7u, 64u}) {
    std::vector<NeumaierSum> parts(pieces);
    for (std::size_t i = 0; i < values.size(); ++i) {
      parts[i * pieces / values.size()].Add(values[i]);
    }
    NeumaierSum merged;
    for (const NeumaierSum& p : parts) merged.MergeState(p);
    EXPECT_EQ(single.Total(), merged.Total()) << pieces << " pieces";
  }
}

TEST(MeanMergeStateTest, ZeroStateIsBitIdentity) {
  const auto reports = MechanismReports("duchi", 500, 8, 3, 21);
  MeanAggregator agg = FoldAll(reports, 8);
  const auto before = StateBytes(agg);
  MeanAggregator zero = MakeAggregator(8);
  ASSERT_TRUE(agg.MergeState(zero).ok());
  EXPECT_EQ(before, StateBytes(agg));
  ASSERT_TRUE(zero.MergeState(agg).ok());
  EXPECT_EQ(before, StateBytes(zero));
}

TEST(MeanMergeStateTest, MergeIsBitCommutative) {
  const auto reports = MechanismReports("piecewise", 800, 8, 3, 22);
  MeanAggregator ab = FoldRange(reports, 8, 0, 400);
  MeanAggregator ba = FoldRange(reports, 8, 400, 800);
  const MeanAggregator a = FoldRange(reports, 8, 0, 400);
  const MeanAggregator b = FoldRange(reports, 8, 400, 800);
  ASSERT_TRUE(ab.MergeState(b).ok());
  ASSERT_TRUE(ba.MergeState(a).ok());
  EXPECT_EQ(StateBytes(ab), StateBytes(ba));
}

TEST(MeanMergeStateTest, DimensionMismatchIsRejected) {
  MeanAggregator a = MakeAggregator(4);
  const MeanAggregator b = MakeAggregator(5);
  EXPECT_EQ(a.MergeState(b).code(), StatusCode::kInvalidArgument);
}

TEST(MeanMergeStateTest, ExactDataAnyAssociationIsBitIdenticalToSingleFold) {
  // With exact additions the compensation channel stays zero and the
  // merge tree is provably invisible: any association, any split.
  const auto reports = DyadicReports(1200, 16, 23);
  const MeanAggregator single = FoldAll(reports, 16);
  const auto single_state = StateBytes(single);

  // (A + B) + C.
  MeanAggregator left = FoldRange(reports, 16, 0, 400);
  ASSERT_TRUE(left.MergeState(FoldRange(reports, 16, 400, 800)).ok());
  ASSERT_TRUE(left.MergeState(FoldRange(reports, 16, 800, 1200)).ok());
  // A + (B + C).
  MeanAggregator right_tail = FoldRange(reports, 16, 400, 800);
  ASSERT_TRUE(
      right_tail.MergeState(FoldRange(reports, 16, 800, 1200)).ok());
  MeanAggregator right = FoldRange(reports, 16, 0, 400);
  ASSERT_TRUE(right.MergeState(right_tail).ok());

  EXPECT_EQ(single_state, StateBytes(left));
  EXPECT_EQ(single_state, StateBytes(right));
  EXPECT_EQ(single.EstimatedMean(), left.EstimatedMean());
  EXPECT_EQ(single.EstimatedMean(), right.EstimatedMean());
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_EQ(single.ReportCount(j), left.ReportCount(j));
  }

  // Many-way splits, merged flat in order.
  for (const std::size_t pieces : {2u, 5u, 64u}) {
    MeanAggregator merged = MakeAggregator(16);
    for (std::size_t p = 0; p < pieces; ++p) {
      const std::size_t begin = p * reports.size() / pieces;
      const std::size_t end = (p + 1) * reports.size() / pieces;
      ASSERT_TRUE(
          merged.MergeState(FoldRange(reports, 16, begin, end)).ok());
    }
    EXPECT_EQ(single_state, StateBytes(merged)) << pieces << " pieces";
  }
}

TEST(MeanMergeStateTest, RealisticDataIsDeterministicAndUlpCloseToSingle) {
  // Perturbed report values make the compensation additions round, so
  // re-association may move the last ulp. Two things must still hold —
  // and they are what the service's fixed group/pane merge order relies
  // on: the same split merged in the same order reproduces the same
  // bits every time, and the merged estimate never drifts more than an
  // ulp or two from the single fold.
  for (const char* mechanism : {"duchi", "piecewise"}) {
    const auto reports = MechanismReports(mechanism, 900, 16, 4, 23);
    const MeanAggregator single = FoldAll(reports, 16);
    const auto single_estimate = single.EstimatedMean();

    auto merge_in_order = [&reports]() {
      MeanAggregator merged = MakeAggregator(16);
      for (std::size_t p = 0; p < 3; ++p) {
        EXPECT_TRUE(
            merged
                .MergeState(FoldRange(reports, 16, p * 300, (p + 1) * 300))
                .ok());
      }
      return merged;
    };
    const MeanAggregator once = merge_in_order();
    const MeanAggregator again = merge_in_order();
    EXPECT_EQ(StateBytes(once), StateBytes(again)) << mechanism;

    const auto merged_estimate = once.EstimatedMean();
    ASSERT_EQ(single_estimate.size(), merged_estimate.size());
    for (std::size_t j = 0; j < merged_estimate.size(); ++j) {
      EXPECT_LE(UlpDistance(single_estimate[j], merged_estimate[j]), 2u)
          << mechanism << " dim " << j;
      EXPECT_EQ(single.ReportCount(j), once.ReportCount(j));
    }
    EXPECT_EQ(single.TotalReports(), once.TotalReports());
  }
}

TEST(MeanMergeStateTest, FreqExpandedStateObeysTheSameLaws) {
  // Unperturbed one-hot data is ±1 in the piecewise native domain —
  // every addition exact, so the bitwise law applies to freq state too.
  const std::size_t q = 4, c = 3;
  const std::size_t dims = q * c;
  auto mech = mech::MakeMechanism("piecewise").value();
  const auto map =
      mech::DomainMap::Between({0.0, 1.0}, mech->InputDomain()).value();
  Rng rng(25);
  std::vector<UserReport> reports;
  for (std::size_t i = 0; i < 600; ++i) {
    UserReport report;
    for (std::size_t j = 0; j < q; ++j) {
      const std::size_t answer = rng.UniformInt(c);
      for (std::size_t k = 0; k < c; ++k) {
        report.entries.push_back(DimensionReport{
            static_cast<std::uint32_t>(j * c + k),
            map.Forward(k == answer ? 1.0 : 0.0)});
      }
    }
    reports.push_back(std::move(report));
  }
  const MeanAggregator single = FoldAll(reports, dims);
  MeanAggregator merged = FoldRange(reports, dims, 0, 200);
  MeanAggregator tail = FoldRange(reports, dims, 200, 450);
  ASSERT_TRUE(tail.MergeState(FoldRange(reports, dims, 450, 600)).ok());
  ASSERT_TRUE(merged.MergeState(tail).ok());
  EXPECT_EQ(single.EstimatedMean(), merged.EstimatedMean());
  EXPECT_EQ(StateBytes(single), StateBytes(merged));

  // Perturbed freq state: fixed merge order is still bit-reproducible.
  const auto noisy = OneHotReports(600, q, c, 25);
  MeanAggregator a = FoldRange(noisy, dims, 0, 300);
  ASSERT_TRUE(a.MergeState(FoldRange(noisy, dims, 300, 600)).ok());
  MeanAggregator b = FoldRange(noisy, dims, 0, 300);
  ASSERT_TRUE(b.MergeState(FoldRange(noisy, dims, 300, 600)).ok());
  EXPECT_EQ(StateBytes(a), StateBytes(b));
}

TEST(MeanMergeStateTest, SerializeRestoreMergeMatchesLiveMergeBitwise) {
  // The service merges panes through SerializeState/RestoreState (and
  // across a crash); the round-trip boundary must add no rounding:
  // restoring two partial states and merging them is bit-identical to
  // merging the live aggregators.
  const auto reports = MechanismReports("piecewise", 700, 8, 3, 26);
  const MeanAggregator part_a = FoldRange(reports, 8, 0, 350);
  const MeanAggregator part_b = FoldRange(reports, 8, 350, 700);
  MeanAggregator live = FoldRange(reports, 8, 0, 350);
  ASSERT_TRUE(live.MergeState(part_b).ok());
  MeanAggregator restored_a = MakeAggregator(8);
  MeanAggregator restored_b = MakeAggregator(8);
  ASSERT_TRUE(restored_a.RestoreState(StateBytes(part_a)).ok());
  ASSERT_TRUE(restored_b.RestoreState(StateBytes(part_b)).ok());
  ASSERT_TRUE(restored_a.MergeState(restored_b).ok());
  EXPECT_EQ(StateBytes(live), StateBytes(restored_a));
  EXPECT_EQ(live.EstimatedMean(), restored_a.EstimatedMean());

  // And on exact data the round trip composes with the single-fold law.
  const auto exact = DyadicReports(500, 8, 27);
  const MeanAggregator exact_single = FoldAll(exact, 8);
  MeanAggregator via_bytes = MakeAggregator(8);
  ASSERT_TRUE(
      via_bytes.RestoreState(StateBytes(FoldRange(exact, 8, 0, 250))).ok());
  ASSERT_TRUE(
      via_bytes.MergeState(FoldRange(exact, 8, 250, 500)).ok());
  EXPECT_EQ(StateBytes(exact_single), StateBytes(via_bytes));
}

// FNV-1a-64 over a byte string.
std::uint64_t Fnv1a64(const std::vector<unsigned char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(MeanMergeStateTest, SerializedStateBytesArePinned) {
  // Checkpoints and service snapshots store these bytes; a build that
  // reads an older build's checkpoint needs them unchanged. Nonzero
  // compensation terms and counts exercise every field.
  const auto reports = MechanismReports("piecewise", 700, 8, 3, 26);
  const std::vector<unsigned char> bytes = StateBytes(FoldAll(reports, 8));
  ASSERT_EQ(bytes.size(), 8u * 24u);
  EXPECT_EQ(Fnv1a64(bytes), 0xaa6ae44581919eadULL);
}

TEST(BudgetCapacityTest, CapacityMatchesActualSpendCount) {
  for (const double total : {1.0, 2.0, 0.5}) {
    for (const double eps : {1.0, 0.25, 0.3, 0.07}) {
      auto ledger = BudgetAccountant::Create(total).value();
      const std::uint64_t capacity = ledger.Capacity(eps).value();
      std::uint64_t spent = 0;
      while (ledger.Spend(eps).ok()) ++spent;
      EXPECT_EQ(capacity, spent) << "total=" << total << " eps=" << eps;
    }
  }
}

TEST(BudgetCapacityTest, RejectsBadEpsilon) {
  const auto ledger = BudgetAccountant::Create(1.0).value();
  EXPECT_FALSE(ledger.Capacity(0.0).ok());
  EXPECT_FALSE(ledger.Capacity(-1.0).ok());
}

}  // namespace
}  // namespace protocol
}  // namespace hdldp
