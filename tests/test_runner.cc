// Tests of framework::ExperimentRunner: per-trial seeds must be derived
// (not shared), results must come back in trial order, and the whole
// reduction must be bit-identical for 1 worker and N workers.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "framework/experiment_runner.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace framework {
namespace {

TEST(ExperimentRunnerTest, TrialSeedsAreDerivedAndDistinct) {
  ExperimentRunnerOptions options;
  options.seed = 42;
  const ExperimentRunner runner(options);
  std::set<std::uint64_t> seeds;
  for (std::size_t t = 0; t < 1000; ++t) seeds.insert(runner.TrialSeed(t));
  EXPECT_EQ(seeds.size(), 1000u);  // No collisions on a small grid.

  ExperimentRunnerOptions other;
  other.seed = 43;
  EXPECT_NE(ExperimentRunner(other).TrialSeed(0), runner.TrialSeed(0));
  // Pure function of (seed, trial).
  EXPECT_EQ(runner.TrialSeed(7), ExperimentRunner(options).TrialSeed(7));
}

TEST(ExperimentRunnerTest, ResultsArriveInTrialOrder) {
  ExperimentRunner runner;
  const auto results = runner.RunTrials(
      257, [](const TrialContext& ctx) { return ctx.trial * 3; });
  ASSERT_EQ(results.size(), 257u);
  for (std::size_t t = 0; t < results.size(); ++t) {
    EXPECT_EQ(results[t], t * 3);
  }
}

TEST(ExperimentRunnerTest, IdenticalForOneAndManyWorkers) {
  auto run = [](std::size_t max_workers) {
    ExperimentRunnerOptions options;
    options.seed = 0xF00D;
    options.max_workers = max_workers;
    ExperimentRunner runner(options);
    double total = 0.0;
    runner.ForEachTrial(
        64,
        [](const TrialContext& ctx) {
          Rng rng(ctx.seed);
          double acc = 0.0;
          for (int k = 0; k < 500; ++k) acc += rng.Gaussian();
          return acc;
        },
        [&](double trial_sum) { total += trial_sum; });
    return total;
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
  EXPECT_EQ(serial, run(0));  // 0 = all hardware threads.
}

TEST(ExperimentRunnerTest, DrivesThePipelineDeterministically) {
  // End-to-end: trial-parallel RunMeanEstimation calls (the figure-bench
  // shape) reduce to the same MSE sequence for any worker count.
  Rng data_rng(11);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 2000, .num_dims = 4},
                     &data_rng).value();
  const auto mechanism = mech::MakeMechanism("piecewise").value();
  auto run = [&](std::size_t max_workers) {
    ExperimentRunnerOptions options;
    options.seed = 99;
    options.max_workers = max_workers;
    ExperimentRunner runner(options);
    return runner.RunTrials(8, [&](const TrialContext& ctx) {
      protocol::PipelineOptions opts;
      opts.total_epsilon = 1.0;
      opts.seed = ctx.seed;
      return protocol::RunMeanEstimation(dataset, mechanism, opts)
          .value()
          .mse;
    });
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_EQ(serial[t], parallel[t]) << t;
  }
}

}  // namespace
}  // namespace framework
}  // namespace hdldp
