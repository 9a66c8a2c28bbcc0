// IoT telemetry: the paper's motivating scenario. A fleet of smart
// devices reports 256 sensor readings under a strict total budget; the
// vendor wants per-sensor fleet means. About 10% of the sensors carry a
// strong systematic reading (a fleet-wide fault indicator at ~0.9); the
// rest hover around zero.
//
// Demonstrates:
//   * the dimension-sampling protocol (each device reports m = 16 of its
//     d = 256 sensors, budget eps/m each),
//   * the dimensionality curse at the naive aggregator,
//   * HDR4ME-L1 recovering the *sparse structure*: noise sensors are
//     zeroed while the fault indicators survive.

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "hdr4me/recalibrate.h"
#include "mech/registry.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"

int main() {
  constexpr std::size_t kDevices = 40000;
  constexpr std::size_t kSensors = 256;
  constexpr std::size_t kReported = 16;
  constexpr double kEpsilon = 4.0;

  // 10% "signal" sensors at mean 0.9, the rest at 0 (stddev 1/16),
  // values clamped into [-1, 1] — the paper's Gaussian dataset.
  hdldp::Rng rng(77);
  hdldp::data::GaussianSpec spec;
  spec.num_users = kDevices;
  spec.num_dims = kSensors;
  const auto fleet = hdldp::data::Generate(spec, &rng).value();

  auto mechanism = hdldp::mech::MakeMechanism("piecewise").value();
  hdldp::protocol::PipelineOptions options;
  options.total_epsilon = kEpsilon;
  options.report_dims = kReported;
  options.seed = 3;
  const auto run =
      hdldp::protocol::RunMeanEstimation(fleet, mechanism, options).value();

  std::printf("fleet       : %zu devices x %zu sensors, m=%zu, eps=%g\n",
              kDevices, kSensors, kReported, kEpsilon);
  std::printf("per-sensor  : eps/m = %.4f, ~%zu reports each\n\n",
              run.per_dim_epsilon, kDevices * kReported / kSensors);

  // Per-sensor deviation models from per-sensor empirical marginals, with
  // r_j = devices * m / d reports each.
  const auto deviations =
      hdldp::hdr4me::MarginalDeviations(
          hdldp::data::ResidentChunkSource(&fleet), {}, kReported,
          *mechanism, run.per_dim_epsilon)
          .value();

  hdldp::hdr4me::Hdr4meOptions hdr;
  hdr.regularizer = hdldp::hdr4me::Regularizer::kL1;
  const auto l1 =
      hdldp::hdr4me::Recalibrate(run.estimated_mean, deviations, hdr).value();
  hdr.regularizer = hdldp::hdr4me::Regularizer::kL2;
  const auto l2 =
      hdldp::hdr4me::Recalibrate(run.estimated_mean, deviations, hdr).value();

  const double mse_l1 =
      hdldp::protocol::MeanSquaredError(l1.enhanced_mean, run.true_mean)
          .value();
  const double mse_l2 =
      hdldp::protocol::MeanSquaredError(l2.enhanced_mean, run.true_mean)
          .value();
  std::printf("%-22s %12s\n", "estimator", "MSE");
  std::printf("%-22s %12.6f\n", "naive aggregation", run.mse);
  std::printf("%-22s %12.6f\n", "HDR4ME (L1)", mse_l1);
  std::printf("%-22s %12.6f\n\n", "HDR4ME (L2)", mse_l2);

  // Show two signal sensors (0, 12) and six noise sensors.
  std::printf("sensor-level view:\n");
  std::printf("%8s %12s %12s %12s %12s\n", "sensor", "true", "naive", "L1",
              "L2");
  for (const std::size_t j : {0u, 12u, 40u, 80u, 120u, 160u, 200u, 240u}) {
    std::printf("%8zu %12.4f %12.4f %12.4f %12.4f\n", j, run.true_mean[j],
                run.estimated_mean[j], l1.enhanced_mean[j],
                l2.enhanced_mean[j]);
  }

  const auto recovery =
      hdldp::protocol::EvaluateSupportRecovery(l1.enhanced_mean,
                                               run.true_mean, 0.1)
          .value();
  std::printf("\nL1 support recovery (|mean| > 0.1): precision %.2f, "
              "recall %.2f, F1 %.2f\n(%zu of %zu sensors zeroed). Exact "
              "support recovery comes at the price of\nshrinking the "
              "surviving means (the soft-threshold bias); L2 shrinks\n"
              "everything smoothly and wins on MSE. Deploy L1 when the "
              "vendor needs\n*which sensors fire*, L2 when magnitudes "
              "matter.\n",
              recovery.precision, recovery.recall, recovery.f1,
              l1.zeroed_dims, kSensors);
  return 0;
}
