// Reproduces Figure 4 (a)-(l): MSE vs. privacy budget for Laplace,
// Piecewise and Square wave under naive aggregation, HDR4ME-L1 and
// HDR4ME-L2, on the four Section VI datasets:
//
//   (a-c) Gaussian  n=100,000 d=100     (d-f) Poisson  n=150,000 d=300
//   (g-i) Uniform   n=120,000 d=500     (j-l) COV-19*  n=150,000 d=750
//
// (*correlated surrogate, see DESIGN.md). Every user reports all d
// dimensions (the paper's stress setting), eps is partitioned as eps/d.
// Budget grids follow the paper: {0.1,0.2,0.4,0.8,1.6,3.2} for Laplace
// and Piecewise, {0.1,10,100,500,1000,5000} for Square wave.

#include <cstdio>
#include <functional>
#include <string>
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

using hdldp::data::Dataset;

struct DatasetConfig {
  const char* label;
  const char* subfigures;
  std::size_t paper_users;
  std::size_t dims;
  std::function<Dataset(std::size_t, hdldp::Rng*)> make;
};

std::vector<DatasetConfig> Configs() {
  return {
      {"Gaussian", "(a)-(c)", 100000, 100,
       [](std::size_t n, hdldp::Rng* rng) {
         hdldp::data::GaussianSpec spec;
         spec.num_users = n;
         spec.num_dims = 100;
         return hdldp::data::Generate(spec, rng).value();
       }},
      {"Poisson", "(d)-(f)", 150000, 300,
       [](std::size_t n, hdldp::Rng* rng) {
         hdldp::data::PoissonSpec spec;
         spec.num_users = n;
         spec.num_dims = 300;
         return hdldp::data::Generate(spec, rng).value();
       }},
      {"Uniform", "(g)-(i)", 120000, 500,
       [](std::size_t n, hdldp::Rng* rng) {
         return hdldp::data::Generate(
             hdldp::data::UniformSpec{.num_users = n, .num_dims = 500},
             rng).value();
       }},
      {"COV-19*", "(j)-(l)", 150000, 750,
       [](std::size_t n, hdldp::Rng* rng) {
         hdldp::data::CorrelatedSpec spec;
         spec.num_users = n;
         spec.num_dims = 750;
         return hdldp::data::Generate(spec, rng).value();
       }},
  };
}

void RunMechanismOnDataset(const DatasetConfig& config, const Dataset& data,
                           const std::string& mech_name,
                           const std::vector<double>& eps_grid,
                           std::size_t repeats) {
  const auto mechanism = hdldp::mech::MakeMechanism(mech_name).value();
  std::printf("--- %s on %s (n=%zu, d=%zu, m=d) ---\n", mech_name.c_str(),
              config.label, data.num_users(), data.num_dims());
  std::printf("%10s %14s %14s %14s\n", "eps", "naive-MSE", "L1-MSE",
              "L2-MSE");
  const auto true_mean = data.TrueMean();
  for (const double eps : eps_grid) {
    const double eps_per_dim = eps / static_cast<double>(data.num_dims());
    // Deviation models are repeat-independent: r_j = n exactly when m = d.
    const auto deviations =
        hdldp::hdr4me::MarginalDeviations(
            hdldp::data::ResidentChunkSource(&data), {}, 0, *mechanism,
            eps_per_dim)
            .value();
    double naive = 0.0;
    double l1 = 0.0;
    double l2 = 0.0;
    // One repeat per trial, parallel on the shared pool; sums accumulate
    // in trial order, so the printed MSEs are identical for any
    // HDLDP_BENCH_THREADS.
    struct RepMse {
      double naive = 0.0;
      double l1 = 0.0;
      double l2 = 0.0;
    };
    hdldp::framework::ExperimentRunnerOptions runner_options;
    runner_options.seed = 0xF16'4000 + mech_name.size() * 31 +
                          static_cast<std::uint64_t>(eps * 1000.0);
    runner_options.max_workers = hdldp::bench::MaxWorkers();
    hdldp::framework::ExperimentRunner runner(runner_options);
    runner.ForEachTrial(
        repeats,
        [&](const hdldp::framework::TrialContext& ctx) {
          hdldp::protocol::PipelineOptions opts;
          opts.total_epsilon = eps;
          opts.report_dims = 0;  // All dimensions.
          opts.seed = ctx.seed;
          const auto run =
              hdldp::protocol::RunMeanEstimation(data, mechanism, opts)
                  .value();
          RepMse rep;
          rep.naive = run.mse;
          hdldp::hdr4me::Hdr4meOptions h;
          h.regularizer = hdldp::hdr4me::Regularizer::kL1;
          const auto r1 =
              hdldp::hdr4me::Recalibrate(run.estimated_mean, deviations, h)
                  .value();
          rep.l1 = hdldp::protocol::MeanSquaredError(r1.enhanced_mean,
                                                     true_mean)
                       .value();
          h.regularizer = hdldp::hdr4me::Regularizer::kL2;
          const auto r2 =
              hdldp::hdr4me::Recalibrate(run.estimated_mean, deviations, h)
                  .value();
          rep.l2 = hdldp::protocol::MeanSquaredError(r2.enhanced_mean,
                                                     true_mean)
                       .value();
          return rep;
        },
        [&](const RepMse& rep) {
          naive += rep.naive;
          l1 += rep.l1;
          l2 += rep.l2;
        });
    const double denom = static_cast<double>(repeats);
    std::printf("%10g %14.5g %14.5g %14.5g\n", eps, naive / denom, l1 / denom,
                l2 / denom);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  hdldp::bench::PrintHeader(
      "Figure 4: MSE vs. privacy budget on four datasets",
      "100 repeats; Gaussian/Poisson/Uniform/COV-19 at paper populations");
  const std::vector<double> standard_grid = {0.1, 0.2, 0.4, 0.8, 1.6, 3.2};
  const std::vector<double> square_grid = {0.1, 10, 100, 500, 1000, 5000};
  const std::size_t repeats = hdldp::bench::Repeats();

  for (const auto& config : Configs()) {
    const std::size_t users = hdldp::bench::ScaledUsers(config.paper_users);
    hdldp::Rng data_rng(0xDA7A + config.dims);
    const Dataset data = config.make(users, &data_rng);
    std::printf("=== Fig. 4%s: %s dataset ===\n\n", config.subfigures,
                config.label);
    hdldp::bench::Stopwatch watch;
    RunMechanismOnDataset(config, data, "laplace", standard_grid, repeats);
    RunMechanismOnDataset(config, data, "piecewise", standard_grid, repeats);
    RunMechanismOnDataset(config, data, "square_wave", square_grid, repeats);
    std::printf("[%s done in %.1fs]\n\n", config.label, watch.Seconds());
  }
  return 0;
}
