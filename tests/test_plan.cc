// Tests of the prepared sampler plans (mech/plan.h): MakePlan() output
// must be bit-identical to the scalar Perturb() path for every registered
// mechanism across an eps grid that includes the tiny per-dimension
// budgets of high-d runs (eps/m = 0.001), and the dense client/aggregator
// fast path must match the scalar protocol.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "mech/mechanism.h"
#include "mech/plan.h"
#include "mech/registry.h"
#include "protocol/aggregator.h"
#include "protocol/client.h"
#include "protocol/report.h"

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

TEST(SamplerPlanTest, BitIdenticalToScalarForEveryMechanism) {
  for (const auto name : RegisteredMechanismNames()) {
    SCOPED_TRACE(std::string(name));
    const auto mechanism = MakeMechanism(name).value();
    const std::vector<double> ts = NativeInputs(*mechanism, 301);
    for (const double eps : kEpsGrid) {
      SCOPED_TRACE(eps);
      ASSERT_TRUE(mechanism->ValidateBudget(eps).ok());
      const SamplerPlan plan = mechanism->MakePlan(eps);

      Rng scalar_rng(0x9'1234);
      std::vector<double> scalar(ts.size());
      for (std::size_t i = 0; i < ts.size(); ++i) {
        scalar[i] = mechanism->Perturb(ts[i], eps, &scalar_rng);
      }

      // Per-value PerturbOne path.
      Rng one_rng(0x9'1234);
      for (std::size_t i = 0; i < ts.size(); ++i) {
        ASSERT_EQ(scalar[i], PerturbOne(plan, ts[i], &one_rng)) << i;
      }
      EXPECT_EQ(scalar_rng.Next(), one_rng.Next());

      // Whole-span PerturbSpan path.
      Rng span_rng(0x9'1234);
      std::vector<double> planned(ts.size());
      PerturbSpan(plan, ts, &span_rng, planned);
      for (std::size_t i = 0; i < ts.size(); ++i) {
        ASSERT_EQ(scalar[i], planned[i]) << i;
      }
      span_rng.Next();  // Match the scalar_rng.Next() drawn above.
    }
  }
}

TEST(SamplerPlanTest, PlanIsReusableAcrossCalls) {
  // A plan prepared once must keep producing the scalar stream on every
  // subsequent span — the whole point of hoisting it out of the loop.
  const auto mechanism = MakeMechanism("piecewise").value();
  const SamplerPlan plan = mechanism->MakePlan(0.02);
  const std::vector<double> ts = NativeInputs(*mechanism, 64);
  Rng scalar_rng(77);
  Rng plan_rng(77);
  std::vector<double> planned(ts.size());
  for (int block = 0; block < 5; ++block) {
    PerturbSpan(plan, ts, &plan_rng, planned);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_EQ(mechanism->Perturb(ts[i], 0.02, &scalar_rng), planned[i]);
    }
  }
}

}  // namespace
}  // namespace mech

namespace protocol {
namespace {

TEST(ReportDenseTest, BitIdenticalToSequentialReportsForEveryMechanism) {
  for (const auto name : mech::RegisteredMechanismNames()) {
    SCOPED_TRACE(std::string(name));
    constexpr std::size_t kUsers = 32;
    constexpr std::size_t kDims = 12;
    ClientOptions opts;
    opts.total_epsilon = 1.5;
    opts.report_dims = 0;  // All dimensions: the dense regime.
    const auto client =
        Client::Create(mech::MakeMechanism(name).value(), kDims, opts).value();

    Rng data_rng(21);
    std::vector<double> tuples(kUsers * kDims);
    for (double& v : tuples) v = data_rng.Uniform(-1.0, 1.0);

    Rng scalar_rng(314);
    std::vector<double> scalar;
    for (std::size_t i = 0; i < kUsers; ++i) {
      const auto report =
          client
              .Report(std::span<const double>(tuples).subspan(i * kDims, kDims),
                      &scalar_rng)
              .value();
      ASSERT_EQ(report.entries.size(), kDims);
      for (std::size_t k = 0; k < kDims; ++k) {
        // Scalar sampling with m == d emits dimensions in ascending order.
        ASSERT_EQ(report.entries[k].dimension, k);
        scalar.push_back(report.entries[k].value);
      }
    }

    Rng dense_rng(314);
    std::vector<double> dense(kUsers * kDims);
    ASSERT_TRUE(client.ReportDense(tuples, &dense_rng, dense).ok());
    for (std::size_t k = 0; k < scalar.size(); ++k) {
      ASSERT_EQ(scalar[k], dense[k]) << k;
    }
    EXPECT_EQ(scalar_rng.Next(), dense_rng.Next());
  }
}

TEST(ReportDenseTest, ValidatesShapeAndRegime) {
  ClientOptions opts;
  const auto all_dims =
      Client::Create(mech::MakeMechanism("piecewise").value(), 4, opts)
          .value();
  std::vector<double> tuples(8, 0.5);
  std::vector<double> out(8);
  Rng rng(1);
  EXPECT_TRUE(all_dims.ReportDense(tuples, &rng, out).ok());
  EXPECT_FALSE(all_dims
                   .ReportDense(std::span<const double>(tuples).first(7), &rng,
                                out)
                   .ok());  // Not a multiple of d.
  EXPECT_FALSE(all_dims
                   .ReportDense(tuples, &rng, std::span<double>(out).first(4))
                   .ok());  // Output too small.

  opts.report_dims = 2;
  const auto sampled =
      Client::Create(mech::MakeMechanism("piecewise").value(), 4, opts)
          .value();
  EXPECT_FALSE(sampled.ReportDense(tuples, &rng, out).ok());  // m < d.
}

TEST(ConsumeDenseTest, MatchesScalarConsumeBitExactly) {
  constexpr std::size_t kDims = 7;
  constexpr std::size_t kUsers = 250;
  Rng rng(0xD15E);
  std::vector<double> values(kUsers * kDims);
  for (double& v : values) v = rng.Uniform(-2.0, 2.0);

  auto scalar = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  for (std::size_t i = 0; i < kUsers; ++i) {
    for (std::size_t j = 0; j < kDims; ++j) {
      scalar.Consume(static_cast<std::uint32_t>(j), values[i * kDims + j]);
    }
  }

  auto dense = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  ASSERT_TRUE(dense.ConsumeDense(values).ok());
  EXPECT_EQ(scalar.TotalReports(), dense.TotalReports());
  const auto scalar_mean = scalar.EstimatedMean();
  const auto dense_mean = dense.EstimatedMean();
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(scalar_mean[j], dense_mean[j]) << j;
    EXPECT_EQ(scalar.ReportCount(j), dense.ReportCount(j)) << j;
  }

  EXPECT_FALSE(dense.ConsumeDense(std::span<const double>(values).first(5))
                   .ok());  // Not a multiple of d.
  EXPECT_EQ(dense.TotalReports(), scalar.TotalReports());  // Unchanged.
}

}  // namespace
}  // namespace protocol
}  // namespace hdldp
