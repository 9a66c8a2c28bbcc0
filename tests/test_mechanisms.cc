// Per-mechanism unit tests: closed-form constants, domains, and the
// paper's Section IV-C case-study anchor values.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mech/duchi.h"
#include "mech/hybrid.h"
#include "mech/laplace.h"
#include "mech/piecewise.h"
#include "mech/registry.h"
#include "mech/scdf.h"
#include "mech/square_wave.h"
#include "mech/staircase.h"

namespace hdldp {
namespace mech {
namespace {

TEST(IntervalTest, Basics) {
  const Interval i{-1.0, 3.0};
  EXPECT_DOUBLE_EQ(i.Width(), 4.0);
  EXPECT_DOUBLE_EQ(i.Center(), 1.0);
  EXPECT_TRUE(i.Contains(0.0));
  EXPECT_TRUE(i.Contains(-1.0));
  EXPECT_FALSE(i.Contains(3.5));
  EXPECT_TRUE(i.IsFinite());
  const double inf = std::numeric_limits<double>::infinity();
  const Interval unbounded{-inf, inf};
  EXPECT_FALSE(unbounded.IsFinite());
}

TEST(DomainMapTest, MapsBetweenIntervals) {
  const auto map = DomainMap::Between({-1.0, 1.0}, {0.0, 1.0}).value();
  EXPECT_DOUBLE_EQ(map.Forward(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(map.Forward(1.0), 1.0);
  EXPECT_DOUBLE_EQ(map.Forward(0.0), 0.5);
  EXPECT_DOUBLE_EQ(map.Backward(0.75), 0.5);
  EXPECT_DOUBLE_EQ(map.scale(), 0.5);
}

TEST(DomainMapTest, RoundTrips) {
  const auto map = DomainMap::Between({-3.0, 5.0}, {10.0, 11.0}).value();
  for (const double x : {-3.0, -1.0, 0.0, 2.5, 5.0}) {
    EXPECT_NEAR(map.Backward(map.Forward(x)), x, 1e-12);
  }
}

TEST(DomainMapTest, RejectsDegenerateIntervals) {
  EXPECT_FALSE(DomainMap::Between({0.0, 0.0}, {0.0, 1.0}).ok());
  EXPECT_FALSE(DomainMap::Between({0.0, 1.0}, {2.0, 2.0}).ok());
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DomainMap::Between({-inf, inf}, {0.0, 1.0}).ok());
}

TEST(RegistryTest, AllNamesConstruct) {
  for (const auto name : RegisteredMechanismNames()) {
    const auto mech = MakeMechanism(name);
    ASSERT_TRUE(mech.ok()) << name;
    EXPECT_EQ(mech.value()->Name(), name);
  }
  EXPECT_EQ(RegisteredMechanismNames().size(), 7u);
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  const auto r = MakeMechanism("gaussian_mechanism");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(BudgetValidationTest, RejectsBadBudgets) {
  const LaplaceMechanism laplace;
  EXPECT_FALSE(laplace.ValidateBudget(0.0).ok());
  EXPECT_FALSE(laplace.ValidateBudget(-1.0).ok());
  EXPECT_FALSE(
      laplace.ValidateBudget(std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(
      laplace.ValidateBudget(std::numeric_limits<double>::quiet_NaN()).ok());
  EXPECT_TRUE(laplace.ValidateBudget(1e-6).ok());
}

// ---------------------------------------------------------------------------
// Laplace.

TEST(LaplaceTest, MomentsClosedForm) {
  const LaplaceMechanism mech;
  const double eps = 0.5;
  const double lambda = 2.0 / eps;
  const auto m = mech.Moments(0.3, eps).value();
  EXPECT_DOUBLE_EQ(m.bias, 0.0);
  EXPECT_DOUBLE_EQ(m.variance, 2.0 * lambda * lambda);
  EXPECT_DOUBLE_EQ(m.third_abs_central, 6.0 * lambda * lambda * lambda);
}

TEST(LaplaceTest, MomentsIndependentOfValue) {
  const LaplaceMechanism mech;
  const auto a = mech.Moments(-0.9, 1.0).value();
  const auto b = mech.Moments(0.9, 1.0).value();
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.bias, b.bias);
}

TEST(LaplaceTest, UnboundedOutputDomain) {
  const LaplaceMechanism mech;
  EXPECT_FALSE(mech.IsBounded());
  const auto dom = mech.OutputDomain(1.0).value();
  EXPECT_TRUE(std::isinf(dom.lo));
  EXPECT_TRUE(std::isinf(dom.hi));
}

// ---------------------------------------------------------------------------
// SCDF.

TEST(ScdfTest, DensityIsCenteredStaircase) {
  const ScdfMechanism mech;
  const double eps = 1.0;
  const double t = 0.2;
  const double c = mech.Density(t, t, eps).value();
  // Same height across the central plateau (width Delta = 2 around t).
  EXPECT_NEAR(mech.Density(t + 0.99, t, eps).value(), c, 1e-12);
  EXPECT_NEAR(mech.Density(t - 0.99, t, eps).value(), c, 1e-12);
  // One band out: exactly e^{-eps} lower.
  EXPECT_NEAR(mech.Density(t + 1.5, t, eps).value(), c * std::exp(-eps),
              1e-12);
  EXPECT_NEAR(mech.Density(t + 3.5, t, eps).value(),
              c * std::exp(-2.0 * eps), 1e-12);
}

TEST(ScdfTest, BeatsLaplaceVarianceAtLargeEps) {
  const ScdfMechanism scdf;
  const LaplaceMechanism laplace;
  const double eps = 4.0;
  EXPECT_LT(scdf.Moments(0.0, eps).value().variance,
            laplace.Moments(0.0, eps).value().variance);
}

TEST(ScdfTest, MatchesLaplaceVarianceOrderAtSmallEps) {
  // Both behave like 2 Delta^2 / eps^2 as eps -> 0.
  const ScdfMechanism scdf;
  const double eps = 0.01;
  const double var = scdf.Moments(0.0, eps).value().variance;
  EXPECT_NEAR(var / (8.0 / (eps * eps)), 1.0, 0.05);
}

// ---------------------------------------------------------------------------
// Staircase.

TEST(StaircaseTest, OptimalGammaFormula) {
  const StaircaseMechanism mech;
  EXPECT_NEAR(mech.GammaAt(1.0), 1.0 / (1.0 + std::exp(0.5)), 1e-15);
  EXPECT_NEAR(mech.GammaAt(4.0), 1.0 / (1.0 + std::exp(2.0)), 1e-15);
}

TEST(StaircaseTest, FixedGammaValidation) {
  EXPECT_TRUE(StaircaseMechanism::WithGamma(0.5).ok());
  EXPECT_FALSE(StaircaseMechanism::WithGamma(0.0).ok());
  EXPECT_FALSE(StaircaseMechanism::WithGamma(1.0).ok());
  EXPECT_FALSE(StaircaseMechanism::WithGamma(-0.2).ok());
}

TEST(StaircaseTest, DensityStepRatioIsExpEps) {
  const auto mech = StaircaseMechanism::WithGamma(0.4).value();
  const double eps = 1.2;
  const double t = 0.0;
  const double inner = mech.Density(0.1, t, eps).value();  // |x| < gamma*Delta.
  const double outer = mech.Density(1.0, t, eps).value();  // In [0.8, 2).
  EXPECT_NEAR(inner / outer, std::exp(eps), 1e-9);
}

TEST(StaircaseTest, OptimalGammaBeatsFixedGammaVariance) {
  const double eps = 2.0;
  const StaircaseMechanism optimal;
  const auto var_opt = optimal.Moments(0.0, eps).value().variance;
  for (const double gamma : {0.1, 0.25, 0.75, 0.9}) {
    const auto fixed = StaircaseMechanism::WithGamma(gamma).value();
    EXPECT_LE(var_opt,
              fixed.Moments(0.0, eps).value().variance * (1.0 + 1e-9))
        << "gamma=" << gamma;
  }
}

TEST(StaircaseTest, BeatsLaplaceAtLargeEps) {
  const StaircaseMechanism stair;
  const LaplaceMechanism laplace;
  EXPECT_LT(stair.Moments(0.0, 5.0).value().variance,
            laplace.Moments(0.0, 5.0).value().variance);
}

// ---------------------------------------------------------------------------
// Duchi.

TEST(DuchiTest, OutputMagnitude) {
  const double eps = 1.0;
  const double b = DuchiMechanism::OutputMagnitude(eps);
  EXPECT_NEAR(b, (std::exp(1.0) + 1.0) / (std::exp(1.0) - 1.0), 1e-12);
  EXPECT_GT(DuchiMechanism::OutputMagnitude(0.1), b);  // Grows as eps shrinks.
}

TEST(DuchiTest, OutputsAreExactlyPlusMinusB) {
  const DuchiMechanism mech;
  const double eps = 1.0;
  const double b = DuchiMechanism::OutputMagnitude(eps);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double out = mech.Perturb(0.4, eps, &rng);
    ASSERT_TRUE(out == b || out == -b);
  }
}

TEST(DuchiTest, VarianceFormula) {
  const DuchiMechanism mech;
  const double eps = 0.8;
  const double b = DuchiMechanism::OutputMagnitude(eps);
  for (const double t : {-1.0, -0.3, 0.0, 0.6, 1.0}) {
    const auto m = mech.Moments(t, eps).value();
    EXPECT_NEAR(m.variance, b * b - t * t, 1e-12) << t;
    EXPECT_DOUBLE_EQ(m.bias, 0.0);
  }
}

TEST(DuchiTest, AtomsSumToOne) {
  const DuchiMechanism mech;
  const auto atoms = mech.Atoms(0.25, 1.5).value();
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_NEAR(atoms[0].mass + atoms[1].mass, 1.0, 1e-12);
  EXPECT_LT(atoms[0].location, atoms[1].location);
}

// ---------------------------------------------------------------------------
// Piecewise.

TEST(PiecewiseTest, GeometryIdentities) {
  const double eps = 1.3;
  const double q = PiecewiseMechanism::OutputBound(eps);
  const double s = std::exp(0.5 * eps);
  EXPECT_NEAR(q, (s + 1.0) / (s - 1.0), 1e-12);
  for (const double t : {-1.0, 0.0, 0.7, 1.0}) {
    const double l = PiecewiseMechanism::LeftEdge(t, eps);
    const double r = PiecewiseMechanism::RightEdge(t, eps);
    EXPECT_NEAR(r - l, q - 1.0, 1e-12);
    EXPECT_GE(l, -q - 1e-12);
    EXPECT_LE(r, q + 1e-12);
    EXPECT_GE(t, l - 1e-12);  // The window always covers t.
    EXPECT_LE(t, r + 1e-12);
  }
}

TEST(PiecewiseTest, VarianceFormulaEq14) {
  const PiecewiseMechanism mech;
  const double eps = 0.9;
  const double em1 = std::exp(0.5 * eps) - 1.0;
  for (const double t : {-0.8, 0.0, 0.5}) {
    const auto m = mech.Moments(t, eps).value();
    const double expected =
        t * t / em1 + (std::exp(0.5 * eps) + 3.0) / (3.0 * em1 * em1);
    EXPECT_NEAR(m.variance, expected, 1e-10) << t;
    EXPECT_DOUBLE_EQ(m.bias, 0.0);
  }
}

TEST(PiecewiseTest, CaseStudySigmaSquared) {
  // Paper Section IV-C: eps/m = 0.001, values {0.1, ..., 1.0} each with
  // p = 10%, r = 10,000 reports => sigma_j^2 = 533.210.
  const PiecewiseMechanism mech;
  const double eps = 0.001;
  double mean_var = 0.0;
  for (int k = 1; k <= 10; ++k) {
    mean_var += 0.1 * mech.Moments(0.1 * k, eps).value().variance;
  }
  const double sigma_sq = mean_var / 10000.0;
  EXPECT_NEAR(sigma_sq, 533.2, 0.5);
}

TEST(PiecewiseTest, OutputsStayInsideQ) {
  const PiecewiseMechanism mech;
  const double eps = 0.7;
  const double q = PiecewiseMechanism::OutputBound(eps);
  Rng rng(8);
  for (int i = 0; i < 20000; ++i) {
    const double out = mech.Perturb(rng.Uniform(-1.0, 1.0), eps, &rng);
    ASSERT_GE(out, -q - 1e-12);
    ASSERT_LE(out, q + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Hybrid.

TEST(HybridTest, PureDuchiBelowThreshold) {
  EXPECT_EQ(HybridMechanism::PiecewiseWeight(0.5), 0.0);
  EXPECT_EQ(HybridMechanism::PiecewiseWeight(HybridMechanism::kEpsStar), 0.0);
  EXPECT_GT(HybridMechanism::PiecewiseWeight(0.62), 0.0);
}

TEST(HybridTest, MixtureWeightFormula) {
  const double eps = 2.0;
  EXPECT_NEAR(HybridMechanism::PiecewiseWeight(eps), 1.0 - std::exp(-eps / 2),
              1e-12);
}

TEST(HybridTest, MomentsAreMixture) {
  const HybridMechanism hybrid;
  const PiecewiseMechanism pm;
  const DuchiMechanism duchi;
  const double eps = 1.5;
  const double alpha = HybridMechanism::PiecewiseWeight(eps);
  for (const double t : {-0.5, 0.0, 0.9}) {
    const auto h = hybrid.Moments(t, eps).value();
    const auto p = pm.Moments(t, eps).value();
    const auto d = duchi.Moments(t, eps).value();
    EXPECT_NEAR(h.variance, alpha * p.variance + (1 - alpha) * d.variance,
                1e-10);
    EXPECT_DOUBLE_EQ(h.bias, 0.0);
  }
}

TEST(HybridTest, WorstCaseVarianceDominatesComponents) {
  // The hybrid was designed so that its *worst-case* variance (max over t)
  // is no worse than either component's worst case.
  const HybridMechanism hybrid;
  const PiecewiseMechanism pm;
  const DuchiMechanism duchi;
  const double eps = 1.0;
  double worst_h = 0.0;
  double worst_pm = 0.0;
  double worst_duchi = 0.0;
  for (double t = -1.0; t <= 1.0; t += 0.05) {
    worst_h = std::max(worst_h, hybrid.Moments(t, eps).value().variance);
    worst_pm = std::max(worst_pm, pm.Moments(t, eps).value().variance);
    worst_duchi = std::max(worst_duchi, duchi.Moments(t, eps).value().variance);
  }
  EXPECT_LE(worst_h, std::min(worst_pm, worst_duchi) * (1.0 + 1e-9));
}

TEST(HybridTest, AtomMassesScaledByMixture) {
  const HybridMechanism hybrid;
  const double eps = 1.5;
  const double alpha = HybridMechanism::PiecewiseWeight(eps);
  const auto atoms = hybrid.Atoms(0.3, eps).value();
  ASSERT_EQ(atoms.size(), 2u);
  EXPECT_NEAR(atoms[0].mass + atoms[1].mass, 1.0 - alpha, 1e-12);
}

// ---------------------------------------------------------------------------
// Square wave.

TEST(SquareWaveTest, HalfWidthLimits) {
  // b -> 1/2 as eps -> 0, and decreases toward 0 as eps grows.
  EXPECT_NEAR(SquareWaveMechanism::HalfWidth(1e-4), 0.5, 1e-3);
  EXPECT_NEAR(SquareWaveMechanism::HalfWidth(1e-8), 0.5, 1e-6);
  EXPECT_LT(SquareWaveMechanism::HalfWidth(5.0), 0.1);
  EXPECT_GT(SquareWaveMechanism::HalfWidth(1.0),
            SquareWaveMechanism::HalfWidth(2.0));
}

TEST(SquareWaveTest, CaseStudyBiasAndVariance) {
  // Paper Section IV-C: eps/m = 0.001, values {0.1, ..., 1.0}, r = 10,000:
  // delta_j = -0.049, sigma_j^2 = 3.365e-5.
  const SquareWaveMechanism mech;
  const double eps = 0.001;
  double mean_bias = 0.0;
  double mean_var = 0.0;
  for (int k = 1; k <= 10; ++k) {
    const auto m = mech.Moments(0.1 * k, eps).value();
    mean_bias += 0.1 * m.bias;
    mean_var += 0.1 * m.variance;
  }
  EXPECT_NEAR(mean_bias, -0.049, 0.002);
  EXPECT_NEAR(mean_var / 10000.0, 3.365e-5, 0.1e-5);
}

TEST(SquareWaveTest, OutputDomainIsMinusBToOnePlusB) {
  const SquareWaveMechanism mech;
  const double eps = 0.8;
  const double b = SquareWaveMechanism::HalfWidth(eps);
  const auto dom = mech.OutputDomain(eps).value();
  EXPECT_DOUBLE_EQ(dom.lo, -b);
  EXPECT_DOUBLE_EQ(dom.hi, 1.0 + b);
  Rng rng(9);
  for (int i = 0; i < 20000; ++i) {
    const double out = mech.Perturb(rng.UniformDouble(), eps, &rng);
    ASSERT_GE(out, dom.lo - 1e-12);
    ASSERT_LE(out, dom.hi + 1e-12);
  }
}

TEST(SquareWaveTest, BiasFormulaMatchesMonteCarlo) {
  const SquareWaveMechanism mech;
  const double eps = 1.0;
  Rng rng(10);
  for (const double t : {0.0, 0.3, 0.8, 1.0}) {
    RunningMoments m;
    for (int i = 0; i < 300000; ++i) m.Add(mech.Perturb(t, eps, &rng));
    const double predicted = t + SquareWaveMechanism::BiasAt(t, eps);
    EXPECT_NEAR(m.Mean(), predicted, 5.0 * m.StdDev() / std::sqrt(300000.0))
        << "t=" << t;
  }
}

TEST(SquareWaveTest, NativeDomainIsUnitInterval) {
  const SquareWaveMechanism mech;
  EXPECT_EQ(mech.InputDomain().lo, 0.0);
  EXPECT_EQ(mech.InputDomain().hi, 1.0);
  // Values outside [0, 1] are rejected by the analysis path.
  EXPECT_FALSE(mech.Moments(-0.5, 1.0).ok());
}

}  // namespace
}  // namespace mech
}  // namespace hdldp
