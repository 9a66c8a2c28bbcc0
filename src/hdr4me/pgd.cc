#include "hdr4me/pgd.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"

namespace hdldp {
namespace hdr4me {

namespace {

Status ValidateInputs(std::span<const double> theta_hat,
                      std::span<const double> lambda) {
  if (theta_hat.empty() || theta_hat.size() != lambda.size()) {
    return Status::InvalidArgument(
        "PGD requires matching non-empty theta_hat/lambda");
  }
  for (const double l : lambda) {
    if (!(l >= 0.0)) return Status::InvalidArgument("PGD requires lambda >= 0");
  }
  return Status::OK();
}

// prox_{step * R}(v) for the supported regularizers, elementwise.
double Prox(double v, double lambda, double step, Regularizer regularizer) {
  switch (regularizer) {
    case Regularizer::kL1:
      return SoftThreshold(v, step * lambda);
    case Regularizer::kL2:
      return v / (1.0 + 2.0 * step * lambda);
  }
  return v;
}

double Penalty(double theta, double lambda, Regularizer regularizer) {
  switch (regularizer) {
    case Regularizer::kL1:
      return lambda * std::abs(theta);
    case Regularizer::kL2:
      return lambda * theta * theta;
  }
  return 0.0;
}

}  // namespace

Result<double> Hdr4meObjective(std::span<const double> theta,
                               std::span<const double> theta_hat,
                               std::span<const double> lambda,
                               Regularizer regularizer) {
  HDLDP_RETURN_NOT_OK(ValidateInputs(theta_hat, lambda));
  if (theta.size() != theta_hat.size()) {
    return Status::InvalidArgument("objective: theta has wrong length");
  }
  NeumaierSum acc;
  for (std::size_t j = 0; j < theta.size(); ++j) {
    acc.Add(0.5 * Sq(theta[j] - theta_hat[j]) +
            Penalty(theta[j], lambda[j], regularizer));
  }
  return acc.Total();
}

Result<PgdResult> MinimizeProximal(std::span<const double> theta_hat,
                                   std::span<const double> lambda,
                                   Regularizer regularizer,
                                   const PgdOptions& options) {
  HDLDP_RETURN_NOT_OK(ValidateInputs(theta_hat, lambda));
  if (!(options.step_size > 0.0 && options.step_size <= 1.0)) {
    return Status::InvalidArgument("PGD requires step_size in (0, 1]");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("PGD requires max_iterations > 0");
  }
  const std::size_t d = theta_hat.size();
  const double eta = options.step_size;

  PgdResult result;
  std::vector<double> theta(theta_hat.begin(), theta_hat.end());
  std::vector<double> prev(theta);
  std::vector<double> y(theta);  // FISTA extrapolation point.
  double t_momentum = 1.0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<double>& base = options.accelerate ? y : theta;
    double max_move = 0.0;
    prev = theta;
    for (std::size_t j = 0; j < d; ++j) {
      // Gradient of the separable quadratic loss: base_j - theta_hat_j.
      const double v = base[j] - eta * (base[j] - theta_hat[j]);
      theta[j] = Prox(v, lambda[j], eta, regularizer);
      max_move = std::max(max_move, std::abs(theta[j] - prev[j]));
    }
    result.iterations = iter + 1;
    if (options.accelerate) {
      const double t_next =
          0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum));
      const double beta = (t_momentum - 1.0) / t_next;
      for (std::size_t j = 0; j < d; ++j) {
        y[j] = theta[j] + beta * (theta[j] - prev[j]);
      }
      t_momentum = t_next;
    }
    if (max_move < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  HDLDP_ASSIGN_OR_RETURN(
      result.objective,
      Hdr4meObjective(theta, theta_hat, lambda, regularizer));
  result.solution = std::move(theta);
  return result;
}

}  // namespace hdr4me
}  // namespace hdldp
