// The LDP mechanism interface.
//
// This is the contract the paper's analytical framework (Section IV-B)
// generalizes over. A mechanism perturbs one scalar value t at a
// per-dimension budget eps; the framework consumes, per input value:
//
//   * Bound(M)            -> IsBounded()/OutputDomain()
//   * delta(t) = E[t*]-t  -> Moments().bias
//   * Var[t* | t]         -> Moments().variance
//   * rho(t) = E|t*-t-d|^3 -> Moments().third_abs_central   (Theorem 2)
//
// plus the conditional output distribution itself (Density()/Atoms()) so
// that closed-form moments can be cross-validated by quadrature.
//
// Hot path vs cold path: the MakePlan() sampler runs millions of times per
// experiment and, like its reference Perturb(), takes pre-validated
// arguments (callers run ValidateBudget() once per run; debug builds
// assert). Moments()/Density() are cold analysis paths and return
// Result<> with full validation.

#ifndef HDLDP_MECH_MECHANISM_H_
#define HDLDP_MECH_MECHANISM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "mech/plan.h"

namespace hdldp {
namespace mech {

/// \brief Closed interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  double Width() const { return hi - lo; }
  double Center() const { return 0.5 * (lo + hi); }
  bool Contains(double x) const { return x >= lo && x <= hi; }
  bool IsFinite() const;
};

/// \brief Affine bijection between two intervals.
///
/// The protocol layer normalizes user data into a *data domain* (the paper
/// fixes [-1, 1]); mechanisms declare their *native input domain* (Square
/// wave uses [0, 1]). DomainMap carries values into the native domain and
/// estimates (plus their deviation moments) back out.
class DomainMap {
 public:
  /// Identity map.
  DomainMap() : scale_(1.0), offset_(0.0) {}

  /// Map taking `from` onto `to` affinely. Requires both non-degenerate.
  static Result<DomainMap> Between(const Interval& from, const Interval& to);

  /// x in `from` -> corresponding point of `to`.
  double Forward(double x) const { return scale_ * x + offset_; }
  /// Inverse map.
  double Backward(double y) const { return (y - offset_) / scale_; }
  /// d(to)/d(from); biases scale by this, variances by its square.
  double scale() const { return scale_; }

 private:
  DomainMap(double scale, double offset) : scale_(scale), offset_(offset) {}
  double scale_;
  double offset_;
};

/// \brief Conditional moments of the perturbed output t* given input t.
struct ConditionalMoments {
  /// delta(t) = E[t* - t]; zero for unbiased mechanisms.
  double bias = 0.0;
  /// Var[t* | t].
  double variance = 0.0;
  /// rho(t) = E|t* - t - delta|^3, the Berry-Esseen third moment.
  double third_abs_central = 0.0;
};

/// \brief A point mass in a mechanism's output distribution.
struct Atom {
  /// Output value carrying the mass.
  double location = 0.0;
  /// Probability mass (in (0, 1]).
  double mass = 0.0;
};

/// \brief A locally differentially private perturbation mechanism for one
/// scalar dimension.
///
/// Implementations are stateless and thread-compatible: all randomness
/// comes through the caller-provided Rng, so concurrent use with distinct
/// Rng instances is safe.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Stable identifier ("laplace", "piecewise", ...).
  virtual std::string_view Name() const = 0;

  /// The paper's Bound(M): true iff outputs live in a finite interval.
  virtual bool IsBounded() const = 0;

  /// Native input domain of the mechanism.
  virtual Interval InputDomain() const = 0;

  /// Output domain at budget eps; infinite endpoints when !IsBounded().
  virtual Result<Interval> OutputDomain(double eps) const = 0;

  /// \brief Checks that `eps` is a usable per-dimension budget.
  ///
  /// Run once before a perturbation loop; Perturb() assumes it passed.
  virtual Status ValidateBudget(double eps) const;

  /// \brief One eps-LDP report for input t.
  ///
  /// REQUIRES: ValidateBudget(eps).ok() and InputDomain().Contains(t)
  /// (inputs are clamped defensively in release builds; debug asserts).
  virtual double Perturb(double t, double eps, Rng* rng) const = 0;

  /// \brief Prepares a sampler for this mechanism at budget eps: every
  /// eps-only constant (exp/expm1 terms, band masses, output bounds,
  /// mixture weights) is computed here, once, so perturbation loops pay
  /// zero transcendental evaluations and zero virtual dispatch per value.
  ///
  /// The returned plan draws from its Rng in exactly Perturb()'s order and
  /// produces bit-identical outputs (tests/test_plan.cc), so Perturb()
  /// stays the readable reference the plan is checked against.
  ///
  /// REQUIRES: ValidateBudget(eps).ok(). The plan is a self-contained
  /// value type, safe to copy across threads and to outlive `this`.
  virtual SamplerPlan MakePlan(double eps) const = 0;

  /// \brief Conditional moments of t* given t at budget eps.
  ///
  /// Closed forms where the paper (or the mechanism's source paper) gives
  /// them; otherwise the quadrature fallback. Validates arguments.
  virtual Result<ConditionalMoments> Moments(double t, double eps) const;

  /// \brief Absolutely continuous part of the conditional output density
  /// at x given t (0 where only atoms carry mass).
  virtual Result<double> Density(double x, double t, double eps) const = 0;

  /// \brief Point masses of the conditional output distribution (empty for
  /// purely continuous mechanisms).
  virtual Result<std::vector<Atom>> Atoms(double t, double eps) const;

  /// \brief Sorted breakpoints partitioning the output support into pieces
  /// on which Density(. , t, eps) is smooth. Unbounded mechanisms truncate
  /// where the density mass beyond is below 1e-15.
  virtual Result<std::vector<double>> DensityBreakpoints(double t,
                                                         double eps) const = 0;

  /// \brief Moments computed by integrating Density() between breakpoints
  /// and summing Atoms(); used as default and for cross-validation.
  Result<ConditionalMoments> MomentsByQuadrature(double t, double eps) const;

 protected:
  /// Shared validation: eps usable and t inside (a small tolerance around)
  /// the input domain.
  Status ValidateMomentArgs(double t, double eps) const;
};

using MechanismPtr = std::shared_ptr<const Mechanism>;

}  // namespace mech
}  // namespace hdldp

#endif  // HDLDP_MECH_MECHANISM_H_
