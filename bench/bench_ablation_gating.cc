// Ablation A2: threshold gating (the Lemma 4/5 preconditions as a guard).
//
// The paper's evaluation applies HDR4ME unconditionally and observes that
// Square wave — whose concentrated perturbation keeps deviations small —
// can get *worse* (Figs. 4(c,f,i,l)). Gating re-calibrates a dimension
// only when the predicted sup-deviation exceeds the lemma threshold
// (1 for L1, 2 for L2), so it must recover naive aggregation exactly in
// the low-noise regime while keeping the high-noise gains.

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

namespace {

using hdldp::framework::GaussianDeviation;

double RunOnce(const std::vector<GaussianDeviation>& deviations,
               const std::vector<double>& estimate,
               const std::vector<double>& true_mean,
               hdldp::hdr4me::Regularizer reg, bool gated) {
  hdldp::hdr4me::Hdr4meOptions h;
  h.regularizer = reg;
  h.lambda.gate_on_threshold = gated;
  const auto r =
      hdldp::hdr4me::Recalibrate(estimate, deviations, h).value();
  return hdldp::protocol::MeanSquaredError(r.enhanced_mean, true_mean)
      .value();
}

}  // namespace

int main() {
  hdldp::bench::PrintHeader(
      "Ablation A2: Lemma 4/5 threshold gating on Square wave",
      "Gaussian dataset n=100,000, d=100, m=d; Square wave eps grid");
  const std::size_t users = hdldp::bench::ScaledUsers(100000);
  const std::size_t repeats = hdldp::bench::Repeats();
  constexpr std::size_t kDims = 100;

  hdldp::Rng data_rng(0xAB2A);
  hdldp::data::GaussianSpec spec;
  spec.num_users = users;
  spec.num_dims = kDims;
  const auto data = hdldp::data::Generate(spec, &data_rng).value();
  const auto true_mean = data.TrueMean();
  const auto mechanism = hdldp::mech::MakeMechanism("square_wave").value();

  std::printf("%10s %14s %14s %14s %14s %14s\n", "eps", "naive", "L1",
              "L1-gated", "L2", "L2-gated");
  const hdldp::data::ResidentChunkSource source(&data);
  for (const double eps : {0.1, 10.0, 100.0, 1000.0, 5000.0}) {
    const auto deviations =
        hdldp::hdr4me::MarginalDeviations(source, {}, 0, *mechanism,
                                          eps / static_cast<double>(kDims))
            .value();
    double naive = 0.0;
    double l1 = 0.0;
    double l1g = 0.0;
    double l2 = 0.0;
    double l2g = 0.0;
    // Trial-parallel repeats, reduced in trial order.
    struct RepMse {
      double naive, l1, l1g, l2, l2g;
    };
    hdldp::framework::ExperimentRunnerOptions runner_options;
    runner_options.seed = 0xAB2A00 + static_cast<std::uint64_t>(eps);
    runner_options.max_workers = hdldp::bench::MaxWorkers();
    hdldp::framework::ExperimentRunner runner(runner_options);
    runner.ForEachTrial(
        repeats,
        [&](const hdldp::framework::TrialContext& ctx) {
          hdldp::protocol::PipelineOptions opts;
          opts.total_epsilon = eps;
          opts.seed = ctx.seed;
          const auto run =
              hdldp::protocol::RunMeanEstimation(data, mechanism, opts)
                  .value();
          return RepMse{
              run.mse,
              RunOnce(deviations, run.estimated_mean, true_mean,
                      hdldp::hdr4me::Regularizer::kL1, false),
              RunOnce(deviations, run.estimated_mean, true_mean,
                      hdldp::hdr4me::Regularizer::kL1, true),
              RunOnce(deviations, run.estimated_mean, true_mean,
                      hdldp::hdr4me::Regularizer::kL2, false),
              RunOnce(deviations, run.estimated_mean, true_mean,
                      hdldp::hdr4me::Regularizer::kL2, true)};
        },
        [&](const RepMse& rep) {
          naive += rep.naive;
          l1 += rep.l1;
          l1g += rep.l1g;
          l2 += rep.l2;
          l2g += rep.l2g;
        });
    const double denom = static_cast<double>(repeats);
    std::printf("%10g %14.5g %14.5g %14.5g %14.5g %14.5g\n", eps,
                naive / denom, l1 / denom, l1g / denom, l2 / denom,
                l2g / denom);
  }
  std::printf("\nGated columns should track min(naive, ungated): gating "
              "declines to re-calibrate when the lemma preconditions fail.\n");
  return 0;
}
