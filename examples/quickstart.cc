// Quickstart: the whole hdldp workflow in ~60 lines.
//
//  1. Generate (or load) user data normalized into [-1, 1].
//  2. Run the LDP protocol: each user perturbs and reports her tuple.
//  3. Ask the analytical framework how noisy the estimate must be.
//  4. Re-calibrate the naive estimate with HDR4ME.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "common/rng.h"
#include "data/generators.h"
#include "framework/deviation_model.h"
#include "hdr4me/recalibrate.h"
#include "mech/registry.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"

int main() {
  // 1. A population: 50,000 users, 128 numerical dimensions in [-1, 1].
  hdldp::Rng rng(2024);
  const auto dataset =
      hdldp::data::Generate(
          hdldp::data::UniformSpec{.num_users = 50000, .num_dims = 128},
          &rng).value();

  // 2. The LDP protocol with the Piecewise mechanism and a tight budget.
  //    Each user reports all 128 dimensions, so each gets eps/128.
  auto mechanism = hdldp::mech::MakeMechanism("piecewise").value();
  hdldp::protocol::PipelineOptions options;
  options.total_epsilon = 0.5;
  options.seed = 7;
  const auto run =
      hdldp::protocol::RunMeanEstimation(dataset, mechanism, options).value();
  std::printf("naive aggregation MSE : %.6f\n", run.mse);

  // 3. The framework's per-dimension deviation models (Lemma 2/3): how far
  //    theta-hat strays from theta-bar at this budget and report count,
  //    from each dimension's empirical value distribution.
  const auto deviations =
      hdldp::hdr4me::MarginalDeviations(
          hdldp::data::ResidentChunkSource(&dataset), {}, 0, *mechanism,
          run.per_dim_epsilon)
          .value();
  std::printf("predicted deviation   : N(%.4f, %.4f^2) in dimension 0\n",
              deviations[0].mean, deviations[0].stddev);
  std::printf("predicted MSE         : %.6f\n",
              hdldp::framework::PredictedMse(deviations).value());

  // 4. HDR4ME: one-off L1 re-calibration of the aggregated mean.
  hdldp::hdr4me::Hdr4meOptions hdr;
  hdr.regularizer = hdldp::hdr4me::Regularizer::kL1;
  const auto recalibrated =
      hdldp::hdr4me::Recalibrate(run.estimated_mean, deviations, hdr).value();
  const double enhanced_mse =
      hdldp::protocol::MeanSquaredError(recalibrated.enhanced_mean,
                                        run.true_mean)
          .value();
  std::printf("HDR4ME-L1 MSE         : %.6f  (%.1fx better, %zu dims "
              "zeroed)\n",
              enhanced_mse, run.mse / enhanced_mse,
              recalibrated.zeroed_dims);
  return 0;
}
