// Proximal gradient descent (and its accelerated FISTA variant) for the
// HDR4ME objective
//
//   F(theta) = 1/2 ||theta - theta_hat||^2 + R(lambda o theta),
//
// the iterative machinery the paper's Lemma 4/5 proofs walk through before
// collapsing it to the one-off solvers of Eqs. 34/42 (references [48],
// [49]). The gradient of the separable quadratic loss is theta - theta_hat
// and is 1-Lipschitz, so any step size in (0, 1] converges; with step 1
// the very first proximal step lands on the closed-form solution. Tests
// verify convergence of the iterative path to the one-off solvers, and
// bench_ablation_pgd measures the cost of iterating anyway.

#ifndef HDLDP_HDR4ME_PGD_H_
#define HDLDP_HDR4ME_PGD_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "hdr4me/recalibrate.h"

namespace hdldp {
namespace hdr4me {

/// Configuration of the iterative solver.
struct PgdOptions {
  /// Gradient step size in (0, 1]; 1 reproduces the one-off solver in a
  /// single iteration.
  double step_size = 0.5;
  /// Iteration cap.
  int max_iterations = 10000;
  /// Stop when the iterate moves less than this in L-infinity norm.
  double tolerance = 1e-12;
  /// Use FISTA momentum (accelerated proximal gradient).
  bool accelerate = false;
};

/// Outcome of an iterative minimization.
struct PgdResult {
  /// The minimizer found.
  std::vector<double> solution;
  /// Iterations actually run.
  int iterations = 0;
  /// Whether the tolerance was met before the iteration cap.
  bool converged = false;
  /// Final objective value F(solution).
  double objective = 0.0;
};

/// \brief F(theta) for the given regularizer; used by tests and by
/// PgdResult reporting. Sizes must match.
Result<double> Hdr4meObjective(std::span<const double> theta,
                               std::span<const double> theta_hat,
                               std::span<const double> lambda,
                               Regularizer regularizer);

/// \brief Minimizes F by proximal gradient descent / FISTA.
Result<PgdResult> MinimizeProximal(std::span<const double> theta_hat,
                                   std::span<const double> lambda,
                                   Regularizer regularizer,
                                   const PgdOptions& options = {});

}  // namespace hdr4me
}  // namespace hdldp

#endif  // HDLDP_HDR4ME_PGD_H_
