// Prepared sampler plans: the eps-resolved form of a Mechanism.
//
// A plan holds every eps-only constant of one mechanism's Perturb() —
// exp/expm1 terms, band masses, output bounds, mixture weights — computed
// once (Mechanism::MakePlan) instead of once per value or per batch call.
// SamplerPlan is a std::variant over the concrete per-mechanism plan
// structs, so a perturbation loop is a single std::visit whose per-value
// bodies are non-virtual and fully inlinable.
//
// Contract (checked by tests/test_plan.cc for every registered mechanism):
// each plan's operator() performs exactly the arithmetic of the matching
// Mechanism::Perturb() at the prepared eps, drawing from the Rng in the
// same order, so scalar, batched and planned ingestion paths produce
// bit-identical outputs under a fixed seed.

#ifndef HDLDP_MECH_PLAN_H_
#define HDLDP_MECH_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <variant>

#include "common/lane_math.h"
#include "common/math.h"
#include "common/rng.h"
#include "common/rng_lanes.h"

namespace hdldp {
namespace mech {

// Lane bodies (the Lanes4 methods): each concrete plan also perturbs four
// values at once, value l drawing only from lane l of an RngLanes — the
// v2 stream contract (SeedScheme::kV2Lanes, see common/rng_lanes.h).
// Lane bodies draw a *fixed* number of lane rounds per value (data-
// dependent no-draw shortcuts are replaced by always-draw selects, which
// is what keeps the four lanes in lockstep), consume 52-bit lane uniforms
// instead of the scalar path's 53-bit ones, and use lanes::Log4 in place
// of libm log1p. They therefore produce *different draws* than the
// scalar bodies under any seed — the v2 contract pins them to (data,
// seed) across thread counts and SIMD-vs-scalar builds instead. The per-
// lane arithmetic is written as plain 4-iteration loops of exactly-
// rounded operations, so SIMD and scalar builds agree bit for bit no
// matter how the compiler vectorizes them.
//
// Implementation note on the plan bodies below: they are written to
// compile branch-free. Ternary selects become two-element array indexing
// (GCC keeps data-dependent ternaries as jumps otherwise) and clamps use
// std::min/std::max (minsd/maxsd), because the selects here hinge on
// ~50% random coins where a predicted-branch form eats a misprediction
// every other value — measured at ~3x the whole body's cost for
// Piecewise. Where both arms of a scalar branch consume exactly one RNG
// draw, the draw is hoisted out of the select so the stream position
// never depends on the outcome. All forms are value-identical (not just
// distribution-identical) to the scalar Perturb() expressions.

/// \brief Duchi et al.: biased coin between the two output atoms +-B(eps).
struct DuchiPlan {
  /// Output magnitude B(eps).
  double magnitude = 0.0;
  /// expm1(eps), the numerator factor of ProbPositive().
  double expm1_eps = 0.0;
  /// 2 (e^eps + 1), the denominator of ProbPositive().
  double prob_denom = 1.0;

  double operator()(double t, Rng* rng) const {
    t = std::min(std::max(t, -1.0), 1.0);
    const double p = 0.5 + t * expm1_eps / prob_denom;
    if (p <= 0.0 || p >= 1.0) {
      // Bernoulli(p)'s no-draw shortcuts: reachable at extreme budgets
      // (eps ~ 40 rounds ProbPositive to 0/1 at |t| near 1). Constant
      // direction per (eps, t) regime, so the branch predicts perfectly
      // and the interior case below stays branch-free.
      return p >= 1.0 ? magnitude : -magnitude;
    }
    const double sel[2] = {-magnitude, magnitude};
    return sel[rng->UniformDouble() < p];
  }

  /// Per-lane ProbPositive for clamped inputs; shared between LaneArm's
  /// coin compare and HybridPlan's shared-coin threshold.
  lanes::Vec LaneProb(lanes::Vec tc) const {
    return lanes::Broadcast(0.5) +
           tc * lanes::Broadcast(expm1_eps) / lanes::Broadcast(prob_denom);
  }

  /// The output select from a precomputed sign decision (HybridPlan folds
  /// its shared coin into the mask it passes here).
  lanes::Vec LaneArmMasked(lanes::Mask positive) const {
    const lanes::Vec mag = lanes::Broadcast(magnitude);
    return lanes::Select(positive, mag, lanes::Neg(mag));
  }

  /// The lane select from a clamped input and one coin. The extreme-
  /// budget no-draw shortcut becomes an always-draw select (coin < p is
  /// constant-true for p >= 1 since coin < 1, constant-false for p <= 0
  /// since coin >= 0).
  lanes::Vec LaneArm(lanes::Vec tc, lanes::Vec coin) const {
    return LaneArmMasked(lanes::Lt(coin, LaneProb(tc)));
  }

  /// Lane body: one lane round per value.
  void Lanes4(const double t[RngLanes::kLanes], RngLanes* rng,
              double out[RngLanes::kLanes]) const {
    const lanes::Vec u = rng->UniformVec();
    const lanes::Vec tc = lanes::Clamp(lanes::Load(t), -1.0, 1.0);
    lanes::Store(out, LaneArm(tc, u));
  }
};

/// \brief Laplace: t plus Lap(2/eps) noise.
struct LaplacePlan {
  /// Noise scale 2 / eps.
  double scale = 1.0;

  double operator()(double t, Rng* rng) const {
    return std::min(std::max(t, -1.0), 1.0) + rng->Laplace(scale);
  }

  /// Lane body: one lane round per value; the inverse-CDF transform runs
  /// through lanes::LogVec on w = 1 - 2|u - 0.5| (exact on the uniform
  /// grid) instead of libm log1p(-2|u - 0.5|).
  void Lanes4(const double t[RngLanes::kLanes], RngLanes* rng,
              double out[RngLanes::kLanes]) const {
    using lanes::Broadcast;
    using lanes::Vec;
    const Vec u = rng->UniformVec();
    const Vec w = Broadcast(1.0) -
                  Broadcast(2.0) * lanes::Abs(u - Broadcast(0.5));
    const Vec lw = lanes::LogVec(w);
    const Vec tc = lanes::Clamp(lanes::Load(t), -1.0, 1.0);
    const Vec sc = Broadcast(scale);
    const Vec sign =
        lanes::Select(lanes::Lt(u, Broadcast(0.5)), sc, lanes::Neg(sc));
    lanes::Store(out, tc + sign * lw);
  }
};

/// \brief Piecewise: high-probability band inside [-Q, Q].
struct PiecewisePlan {
  /// Output bound Q(eps).
  double bound = 0.0;
  /// Mass s / (s + 1) of the band [l(t), r(t)], s = e^{eps/2}.
  double band_mass = 0.0;

  double operator()(double t, Rng* rng) const {
    t = std::min(std::max(t, -1.0), 1.0);
    const double l = 0.5 * (bound + 1.0) * t - 0.5 * (bound - 1.0);
    const double r = l + bound - 1.0;
    if (band_mass >= 1.0) {
      // s/(s+1) rounds to 1.0 for eps >= ~75: Bernoulli(1) takes the
      // band arm without drawing. Plan-constant condition — predicted
      // perfectly, never taken at realistic budgets.
      return l + (r - l) * rng->UniformDouble();
    }
    // band_mass lies inside (0, 1) and both arms of the band test consume
    // exactly one further draw, so the test and the position draw happen
    // unconditionally (same stream order as Perturb()) and the arms
    // reproduce Rng::Uniform's expression operation for operation.
    const bool in_band = rng->UniformDouble() < band_mass;
    const double u01 = rng->UniformDouble();
    const double band_val = l + (r - l) * u01;         // Uniform(l, r).
    const double tail_u = (bound + 1.0) * u01;         // Uniform(0, Q + 1).
    const double left_len = l + bound;
    const double tail_sel[2] = {r + (tail_u - left_len), -bound + tail_u};
    const double sel[2] = {tail_sel[tail_u < left_len], band_val};
    return sel[in_band];
  }

  /// The lane band/tail select from a clamped input, a precomputed band
  /// decision and the position draw (HybridPlan folds its shared coin
  /// into the mask it passes here).
  lanes::Vec LaneArmMasked(lanes::Vec tc, lanes::Mask in_band,
                           lanes::Vec pos) const {
    using lanes::Broadcast;
    using lanes::Vec;
    const Vec lo = Broadcast(0.5 * (bound + 1.0)) * tc -
                   Broadcast(0.5 * (bound - 1.0));
    const Vec hi = lo + Broadcast(bound - 1.0);
    const Vec band_val = lo + (hi - lo) * pos;
    const Vec tail_u = Broadcast(bound + 1.0) * pos;
    const Vec left_len = lo + Broadcast(bound);
    const Vec tail_val = lanes::Select(lanes::Lt(tail_u, left_len),
                                       Broadcast(-bound) + tail_u,
                                       hi + (tail_u - left_len));
    return lanes::Select(in_band, band_val, tail_val);
  }

  /// The lane band/tail select from a clamped input, the band coin and
  /// the position draw; shared between Lanes4 and HybridPlan's Piecewise
  /// arm. band_mass >= 1 degenerates to a constant-true select instead
  /// of skipping the coin draw.
  lanes::Vec LaneArm(lanes::Vec tc, lanes::Vec coin, lanes::Vec pos) const {
    return LaneArmMasked(tc, lanes::Lt(coin, lanes::Broadcast(band_mass)),
                         pos);
  }

  /// Lane body: two lane rounds per value (band coin, position), the
  /// scalar interior arithmetic unchanged.
  void Lanes4(const double t[RngLanes::kLanes], RngLanes* rng,
              double out[RngLanes::kLanes]) const {
    const lanes::Vec ub = rng->UniformVec();
    const lanes::Vec up = rng->UniformVec();
    const lanes::Vec tc = lanes::Clamp(lanes::Load(t), -1.0, 1.0);
    lanes::Store(out, LaneArm(tc, ub, up));
  }
};

/// \brief Square wave: uniform window [t - b, t + b] vs uniform remainder.
struct SquareWavePlan {
  /// Window half-width b(eps).
  double half_width = 0.0;
  /// Mass 2 b e^eps / (2 b e^eps + 1) of the window.
  double window_mass = 0.0;

  double operator()(double t, Rng* rng) const {
    t = std::min(std::max(t, 0.0), 1.0);
    // Like PiecewisePlan: window_mass is strictly inside (0, 1) and both
    // arms consume exactly one further draw, so draw unconditionally and
    // select. The window arm replicates Rng::Uniform(t - b, t + b)
    // operation for operation.
    const bool in_window = rng->UniformDouble() < window_mass;
    const double u = rng->UniformDouble();
    const double lo = t - half_width;
    const double hi = t + half_width;
    const double window_val = lo + (hi - lo) * u;
    const double tail_sel[2] = {hi + (u - t), -half_width + u};
    const double sel[2] = {tail_sel[u < t], window_val};
    return sel[in_window];
  }

  /// Lane body: two lane rounds per value, scalar arithmetic unchanged.
  void Lanes4(const double t[RngLanes::kLanes], RngLanes* rng,
              double out[RngLanes::kLanes]) const {
    using lanes::Broadcast;
    using lanes::Vec;
    const Vec uw = rng->UniformVec();
    const Vec u = rng->UniformVec();
    const Vec tc = lanes::Clamp(lanes::Load(t), 0.0, 1.0);
    const Vec b = Broadcast(half_width);
    const Vec lo = tc - b;
    const Vec hi = tc + b;
    const Vec window_val = lo + (hi - lo) * u;
    const Vec tail_val = lanes::Select(lanes::Lt(u, tc),
                                       Broadcast(-half_width) + u,
                                       hi + (u - tc));
    lanes::Store(out, lanes::Select(lanes::Lt(uw, Broadcast(window_mass)),
                                    window_val, tail_val));
  }
};

/// \brief Staircase: geometric band index, inner/outer sub-band split.
struct StaircasePlan {
  /// Step width Delta.
  double delta = 2.0;
  /// Inner sub-band fraction gamma(eps).
  double gamma = 0.5;
  /// Success probability 1 - e^{-eps} of the band-index geometric.
  double geom_p = 0.5;
  /// P(inner sub-band | band) = gamma / (gamma + q (1 - gamma)).
  double inner_prob = 0.5;
  /// log1p(-geom_p), the inverse-CDF denominator of the band-index
  /// geometric; -inf when geom_p rounds to 1 (eps >= ~100), where the
  /// lane body pins the index to 0. Used only by Lanes4.
  double geom_log_denom = -0.6931471805599453;

  double operator()(double t, Rng* rng) const {
    t = std::min(std::max(t, -1.0), 1.0);
    const auto k = static_cast<double>(rng->Geometric(geom_p));
    const double inner_lo = k * delta;
    const double inner_hi = (k + gamma) * delta;
    const double outer_hi = (k + 1.0) * delta;
    double magnitude;
    if (inner_prob >= 1.0 || inner_prob <= 0.0) {
      // Bernoulli's no-draw shortcuts (inner_prob rounds to 1.0 for
      // eps >= ~80, to 0.0 if gamma underflows). Plan-constant
      // condition — predicted perfectly.
      magnitude = inner_prob >= 1.0
                      ? inner_lo + (inner_hi - inner_lo) * rng->UniformDouble()
                      : inner_hi + (outer_hi - inner_hi) * rng->UniformDouble();
    } else {
      // inner_prob lies inside (0, 1) and both sub-band arms consume
      // exactly one draw: draw unconditionally, select arithmetically.
      // The arms replicate Rng::Uniform's expressions operation for
      // operation.
      const bool inner = rng->UniformDouble() < inner_prob;
      const double u = rng->UniformDouble();
      const double mag_sel[2] = {inner_hi + (outer_hi - inner_hi) * u,
                                 inner_lo + (inner_hi - inner_lo) * u};
      magnitude = mag_sel[inner];
    }
    const double noise_sel[2] = {-magnitude, magnitude};
    return t + noise_sel[rng->UniformDouble() < 0.5];
  }

  /// Lane body: four lane rounds per value (band index, sub-band coin,
  /// position, sign). The geometric index comes from the same inverse
  /// CDF as Rng::Geometric, with lanes::LogVec supplying the numerator.
  void Lanes4(const double t[RngLanes::kLanes], RngLanes* rng,
              double out[RngLanes::kLanes]) const {
    using lanes::Broadcast;
    using lanes::Vec;
    const Vec ug = rng->UniformVec();
    const Vec us = rng->UniformVec();
    const Vec up = rng->UniformVec();
    const Vec usn = rng->UniformVec();
    const Vec lg = lanes::LogVec(Broadcast(1.0) - ug);
    const Vec tc = lanes::Clamp(lanes::Load(t), -1.0, 1.0);
    // geom_p rounding to 1 makes geom_log_denom -inf; pin k to the only
    // band with mass. Plan-constant condition, hoisted by the compiler.
    const Vec k = geom_p >= 1.0
                      ? Broadcast(0.0)
                      : lanes::Floor(lg / Broadcast(geom_log_denom));
    const Vec d = Broadcast(delta);
    const Vec inner_lo = k * d;
    const Vec inner_hi = (k + Broadcast(gamma)) * d;
    const Vec outer_hi = (k + Broadcast(1.0)) * d;
    const Vec magnitude =
        lanes::Select(lanes::Lt(us, Broadcast(inner_prob)),
                      inner_lo + (inner_hi - inner_lo) * up,
                      inner_hi + (outer_hi - inner_hi) * up);
    const Vec noise = lanes::Select(lanes::Lt(usn, Broadcast(0.5)), magnitude,
                                    lanes::Neg(magnitude));
    lanes::Store(out, tc + noise);
  }
};

/// \brief SCDF: central plateau vs geometric side band.
struct ScdfPlan {
  /// Band width Delta.
  double delta = 2.0;
  /// Mass (1 - q) / (1 + q) of the central plateau, q = e^{-eps}.
  double plateau_mass = 0.5;
  /// Success probability 1 - q of the side-band geometric.
  double geom_p = 0.5;
  /// log1p(-geom_p); -inf when geom_p rounds to 1. Used only by Lanes4.
  double geom_log_denom = -0.6931471805599453;

  double operator()(double t, Rng* rng) const {
    t = std::min(std::max(t, -1.0), 1.0);
    // The two arms consume different draw counts (1 vs 3), so the
    // plateau test stays a branch — a cheap one: plateau_mass ~ eps/2 at
    // the tiny budgets of high-d runs, so it is strongly predictable.
    double noise;
    if (rng->Bernoulli(plateau_mass)) {
      noise = rng->Uniform(-0.5 * delta, 0.5 * delta);
    } else {
      const auto k = static_cast<double>(1 + rng->Geometric(geom_p));
      const double magnitude =
          rng->Uniform((k - 0.5) * delta, (k + 0.5) * delta);
      const double noise_sel[2] = {-magnitude, magnitude};
      noise = noise_sel[rng->UniformDouble() < 0.5];
    }
    return t + noise;
  }

  /// Lane body: four lane rounds per value (plateau coin, band index,
  /// position, sign). Unlike the scalar body's 1-vs-3 draw split, every
  /// lane consumes all four rounds and the unused draws are discarded —
  /// distribution-identical since each draw feeds at most one decision.
  void Lanes4(const double t[RngLanes::kLanes], RngLanes* rng,
              double out[RngLanes::kLanes]) const {
    using lanes::Broadcast;
    using lanes::Vec;
    const Vec upl = rng->UniformVec();
    const Vec ug = rng->UniformVec();
    const Vec up = rng->UniformVec();
    const Vec usn = rng->UniformVec();
    const Vec lg = lanes::LogVec(Broadcast(1.0) - ug);
    const Vec tc = lanes::Clamp(lanes::Load(t), -1.0, 1.0);
    const Vec d = Broadcast(delta);
    const Vec plateau_noise = Broadcast(-0.5 * delta) + d * up;
    const Vec k = Broadcast(1.0) +
                  (geom_p >= 1.0
                       ? Broadcast(0.0)
                       : lanes::Floor(lg / Broadcast(geom_log_denom)));
    const Vec magnitude = (k - Broadcast(0.5)) * d + d * up;
    const Vec side_noise = lanes::Select(lanes::Lt(usn, Broadcast(0.5)),
                                         magnitude, lanes::Neg(magnitude));
    const Vec noise = lanes::Select(lanes::Lt(upl, Broadcast(plateau_mass)),
                                    plateau_noise, side_noise);
    lanes::Store(out, tc + noise);
  }
};

/// \brief Hybrid: alpha-mixture of the Piecewise and Duchi plans. The
/// nested plans re-clamp t, matching the scalar mixture's component calls
/// value-for-value.
struct HybridPlan {
  /// Mixture weight alpha(eps) on the Piecewise component.
  double alpha = 0.0;
  PiecewisePlan piecewise;
  DuchiPlan duchi;

  double operator()(double t, Rng* rng) const {
    t = std::min(std::max(t, -1.0), 1.0);
    // The components consume different draw counts (2 vs 1), so the
    // mixture coin has to stay a branch; the component bodies themselves
    // are the branch-free plans above.
    if (rng->Bernoulli(alpha)) {
      return piecewise(t, rng);
    }
    return duchi(t, rng);
  }

  /// Lane body: two lane rounds per value (shared mixture/component
  /// coin, position). The scalar body spends 2-vs-1 draws on a 1-draw
  /// mixture decision; here the mixture coin is *reused* as the winning
  /// component's coin by inverse-CDF rescaling — conditional on
  /// um < alpha, um / alpha is again Uniform[0, 1), and conditional on
  /// um >= alpha so is (um - alpha) / (1 - alpha). The rescales are
  /// folded into the component thresholds (um / alpha < q is um <
  /// alpha * q, and the Duchi compare shifts to um < alpha +
  /// (1 - alpha) * p), so no division is paid and the alpha = 0 / 1
  /// degenerate weights stay exact; only the position draw remains and
  /// the Duchi arm discards it. Distribution-identical to the retired
  /// three-round layout up to the 2^-52 grid, at 2/3 the draw budget.
  void Lanes4(const double t[RngLanes::kLanes], RngLanes* rng,
              double out[RngLanes::kLanes]) const {
    using lanes::Broadcast;
    using lanes::Vec;
    const Vec um = rng->UniformVec();
    const Vec up = rng->UniformVec();
    const Vec tc = lanes::Clamp(lanes::Load(t), -1.0, 1.0);
    const Vec a = Broadcast(alpha);
    const lanes::Mask pick_piecewise = lanes::Lt(um, a);
    const lanes::Mask in_band =
        lanes::Lt(um, Broadcast(alpha * piecewise.band_mass));
    const lanes::Mask positive = lanes::Lt(
        um, a + (Broadcast(1.0) - a) * duchi.LaneProb(tc));
    // The component arms are the nested plans' own lane selects, fed the
    // pre-thresholded shared coin; up is the piecewise position.
    const Vec pw_val = piecewise.LaneArmMasked(tc, in_band, up);
    const Vec duchi_val = duchi.LaneArmMasked(positive);
    lanes::Store(out, lanes::Select(pick_piecewise, pw_val, duchi_val));
  }
};

/// \brief A prepared sampler: one mechanism at one eps, constants resolved.
using SamplerPlan =
    std::variant<DuchiPlan, LaplacePlan, PiecewisePlan, SquareWavePlan,
                 StaircasePlan, ScdfPlan, HybridPlan>;

/// \brief One draw from a prepared plan (native input -> native output).
inline double PerturbOne(const SamplerPlan& plan, double t, Rng* rng) {
  return std::visit([&](const auto& p) { return p(t, rng); }, plan);
}

/// \brief Perturbs `ts.size()` inputs through one std::visit: the variant
/// is resolved once per span and the per-value plan bodies inline into the
/// loop. Draws from `rng` in scalar Perturb() order; `out` must hold at
/// least ts.size() entries.
inline void PerturbSpan(const SamplerPlan& plan, std::span<const double> ts,
                        Rng* rng, std::span<double> out) {
  std::visit(
      [&](const auto& p) {
        for (std::size_t i = 0; i < ts.size(); ++i) {
          out[i] = p(ts[i], rng);
        }
      },
      plan);
}

/// \brief Lane-parallel span perturbation (v2/v3 stream contracts):
/// value base + l of each group of kLanes consecutive values draws from
/// lane l. A trailing partial group is padded — the dead lanes draw and
/// their outputs are discarded, keeping every lane's consumption a pure
/// function of ts.size(). The span-to-user mapping is the caller's
/// contract: v2 sampled spans hold one user, v3 sampled spans pack
/// entries across users (common/rng_lanes.h). `out` must hold at least
/// ts.size() entries.
inline void PerturbLanes(const SamplerPlan& plan, std::span<const double> ts,
                         RngLanes* rng, std::span<double> out) {
  std::visit(
      [&](const auto& p) {
        constexpr std::size_t kL = RngLanes::kLanes;
        std::size_t i = 0;
        for (; i + kL <= ts.size(); i += kL) {
          p.Lanes4(&ts[i], rng, &out[i]);
        }
        if (i < ts.size()) {
          double t4[kL] = {0.0, 0.0, 0.0, 0.0};
          double o4[kL];
          for (std::size_t l = 0; i + l < ts.size(); ++l) t4[l] = ts[i + l];
          p.Lanes4(t4, rng, o4);
          for (std::size_t l = 0; i + l < ts.size(); ++l) out[i + l] = o4[l];
        }
      },
      plan);
}

}  // namespace mech
}  // namespace hdldp

#endif  // HDLDP_MECH_PLAN_H_
