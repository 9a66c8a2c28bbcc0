// Ablation A1: sensitivity of HDR4ME to the lambda* confidence multiplier.
//
// Lemmas 4-5 set lambda*_j = sup|theta-hat_j - theta-bar_j|; the framework
// instantiates the supremum as |delta_j| + z sigma_j. This bench sweeps z
// and reports MSE for L1 and L2 on the Gaussian dataset, showing (i) the
// improvement is robust across a wide z band and (ii) z -> 0 degenerates
// to naive aggregation while huge z over-shrinks L1 toward the zero
// vector (whose MSE equals the mean-square of theta-bar).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "data/generators.h"
#include "framework/experiment_runner.h"
#include "hdr4me/recalibrate.h"
#include "mech/registry.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"

int main() {
  hdldp::bench::PrintHeader(
      "Ablation A1: lambda* confidence multiplier sweep",
      "Gaussian dataset n=100,000, d=200, eps=0.4, m=d");
  const std::size_t users = hdldp::bench::ScaledUsers(100000);
  const std::size_t repeats = hdldp::bench::Repeats();
  constexpr std::size_t kDims = 200;
  constexpr double kEps = 0.4;

  hdldp::Rng data_rng(0xAB1A);
  hdldp::data::GaussianSpec spec;
  spec.num_users = users;
  spec.num_dims = kDims;
  const auto data = hdldp::data::Generate(spec, &data_rng).value();
  const auto true_mean = data.TrueMean();
  const auto mechanism = hdldp::mech::MakeMechanism("piecewise").value();

  // Shared per-dimension deviation models.
  const auto deviations =
      hdldp::hdr4me::MarginalDeviations(
          hdldp::data::ResidentChunkSource(&data), {}, 0, *mechanism,
          kEps / static_cast<double>(kDims))
          .value();

  // Baseline runs (shared across z), trial-parallel and reduced in trial
  // order.
  std::vector<std::vector<double>> estimates;
  double naive_mse = 0.0;
  hdldp::framework::ExperimentRunnerOptions runner_options;
  runner_options.seed = 0xAB1A00;
  runner_options.max_workers = hdldp::bench::MaxWorkers();
  hdldp::framework::ExperimentRunner runner(runner_options);
  runner.ForEachTrial(
      repeats,
      [&](const hdldp::framework::TrialContext& ctx) {
        hdldp::protocol::PipelineOptions opts;
        opts.total_epsilon = kEps;
        opts.seed = ctx.seed;
        return hdldp::protocol::RunMeanEstimation(data, mechanism, opts)
            .value();
      },
      [&](hdldp::protocol::MeanEstimationResult& run) {
        naive_mse += run.mse;
        estimates.push_back(std::move(run.estimated_mean));
      });
  naive_mse /= static_cast<double>(repeats);
  std::printf("naive aggregation MSE: %.5g\n\n", naive_mse);

  std::printf("%10s %14s %14s\n", "z", "L1-MSE", "L2-MSE");
  for (const double z : {0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0}) {
    double l1 = 0.0;
    double l2 = 0.0;
    for (const auto& estimate : estimates) {
      hdldp::hdr4me::Hdr4meOptions h;
      h.lambda.confidence_z = z;
      h.regularizer = hdldp::hdr4me::Regularizer::kL1;
      l1 += hdldp::protocol::MeanSquaredError(
                hdldp::hdr4me::Recalibrate(estimate, deviations, h)
                    .value()
                    .enhanced_mean,
                true_mean)
                .value();
      h.regularizer = hdldp::hdr4me::Regularizer::kL2;
      l2 += hdldp::protocol::MeanSquaredError(
                hdldp::hdr4me::Recalibrate(estimate, deviations, h)
                    .value()
                    .enhanced_mean,
                true_mean)
                .value();
    }
    std::printf("%10g %14.5g %14.5g\n", z,
                l1 / static_cast<double>(estimates.size()),
                l2 / static_cast<double>(estimates.size()));
  }
  // Reference: the all-zero estimate every over-shrunk L1 converges to.
  double zero_mse = 0.0;
  for (const double t : true_mean) zero_mse += t * t;
  std::printf("\nall-zero estimate MSE (L1's large-z limit): %.5g\n",
              zero_mse / static_cast<double>(kDims));
  return 0;
}
