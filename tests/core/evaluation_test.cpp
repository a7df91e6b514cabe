#include "core/evaluation.h"

#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.h"
#include "core/epoch_pipeline.h"

namespace geored::core {
namespace {

/// One shared environment for the whole file: building topology + RNP
/// embedding once keeps the suite fast.
const Environment& shared_env() {
  static const Environment env = [] {
    topo::PlanetLabModelConfig config;
    config.node_count = 140;  // smaller than the paper's 226 to keep tests quick
    return Environment(config, /*topology_seed=*/42, CoordSystem::kRnp,
                       coord::GossipConfig{});
  }();
  return env;
}

/// Restores the global pool to its default size when a test exits.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::set_global_thread_count(0); }
};

ExperimentConfig quick_config() {
  ExperimentConfig config;
  config.num_datacenters = 15;
  config.k = 3;
  config.runs = 8;
  config.mean_accesses_per_client = 60.0;
  return config;
}

TEST(Evaluation, PaperOrderingHolds) {
  const auto result = run_experiment(shared_env(), quick_config());
  const double random = result.mean_of(place::StrategyKind::kRandom);
  const double offline = result.mean_of(place::StrategyKind::kOfflineKMeans);
  const double online = result.mean_of(place::StrategyKind::kOnlineClustering);
  const double optimal = result.mean_of(place::StrategyKind::kOptimal);

  // optimal <= clustering strategies << random (Figures 1-2).
  EXPECT_LE(optimal, online + 1e-9);
  EXPECT_LE(optimal, offline + 1e-9);
  EXPECT_LT(online, 0.75 * random);   // paper: >= 35% better; allow margin
  EXPECT_LT(offline, 0.75 * random);
  EXPECT_LT(online, 1.35 * optimal);  // "near optimal"
}

TEST(Evaluation, OptimalDominatesInEveryRun) {
  const auto result = run_experiment(shared_env(), quick_config());
  const auto& optimal = result.outcome_of(place::StrategyKind::kOptimal);
  for (const auto& outcome : result.outcomes) {
    ASSERT_EQ(outcome.per_run_delay_ms.size(), optimal.per_run_delay_ms.size());
    for (std::size_t r = 0; r < outcome.per_run_delay_ms.size(); ++r) {
      EXPECT_GE(outcome.per_run_delay_ms[r] + 1e-9, optimal.per_run_delay_ms[r])
          << outcome.name << " run " << r;
    }
  }
}

TEST(Evaluation, MoreDataCentersHelpClusteringStrategies) {
  // Figure 1's trend: with k fixed, more candidate data centers reduce the
  // achievable delay for informed strategies.
  ExperimentConfig few = quick_config();
  few.num_datacenters = 6;
  ExperimentConfig many = quick_config();
  many.num_datacenters = 30;
  const auto few_result = run_experiment(shared_env(), few);
  const auto many_result = run_experiment(shared_env(), many);
  EXPECT_LT(many_result.mean_of(place::StrategyKind::kOptimal),
            few_result.mean_of(place::StrategyKind::kOptimal));
  EXPECT_LT(many_result.mean_of(place::StrategyKind::kOnlineClustering),
            few_result.mean_of(place::StrategyKind::kOnlineClustering));
}

TEST(Evaluation, MoreReplicasReduceDelay) {
  // Figure 2's trend, on the optimal strategy (monotone by construction:
  // a (k+1)-subset always contains a k-subset... strictly, optimal over
  // k+1 can only be <= optimal over k).
  ExperimentConfig one = quick_config();
  one.k = 1;
  one.strategies = {place::StrategyKind::kOptimal, place::StrategyKind::kOnlineClustering};
  ExperimentConfig four = one;
  four.k = 4;
  const auto one_result = run_experiment(shared_env(), one);
  const auto four_result = run_experiment(shared_env(), four);
  EXPECT_LT(four_result.mean_of(place::StrategyKind::kOptimal),
            one_result.mean_of(place::StrategyKind::kOptimal));
  EXPECT_LT(four_result.mean_of(place::StrategyKind::kOnlineClustering),
            one_result.mean_of(place::StrategyKind::kOnlineClustering));
}

TEST(Evaluation, DeterministicAcrossInvocations) {
  const auto a = run_experiment(shared_env(), quick_config());
  const auto b = run_experiment(shared_env(), quick_config());
  for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
    EXPECT_EQ(a.outcomes[s].per_run_delay_ms, b.outcomes[s].per_run_delay_ms);
  }
}

TEST(Evaluation, SingleMicroClusterDegradesQuality) {
  // Figure 3's trend: m = 1 summarizes each replica's population to a
  // single centroid and should do worse than m = 7.
  ExperimentConfig coarse = quick_config();
  coarse.micro_clusters = 1;
  coarse.runs = 12;
  coarse.strategies = {place::StrategyKind::kOnlineClustering};
  ExperimentConfig fine = coarse;
  fine.micro_clusters = 7;
  const double delay_coarse =
      run_experiment(shared_env(), coarse).mean_of(place::StrategyKind::kOnlineClustering);
  const double delay_fine =
      run_experiment(shared_env(), fine).mean_of(place::StrategyKind::kOnlineClustering);
  EXPECT_LT(delay_fine, delay_coarse);
}

TEST(Evaluation, QuorumTwoCostsMoreThanQuorumOne) {
  ExperimentConfig q1 = quick_config();
  q1.strategies = {place::StrategyKind::kOptimal};
  q1.runs = 4;
  ExperimentConfig q2 = q1;
  q2.quorum = 2;
  const double d1 = run_experiment(shared_env(), q1).mean_of(place::StrategyKind::kOptimal);
  const double d2 = run_experiment(shared_env(), q2).mean_of(place::StrategyKind::kOptimal);
  EXPECT_GT(d2, d1);  // waiting for the 2nd replica is never faster
}

TEST(Evaluation, RejectsInvalidConfigs) {
  ExperimentConfig config = quick_config();
  config.runs = 0;
  EXPECT_THROW(run_experiment(shared_env(), config), std::invalid_argument);
  config = quick_config();
  config.strategies.clear();
  EXPECT_THROW(run_experiment(shared_env(), config), std::invalid_argument);
  config = quick_config();
  config.num_datacenters = 1000;  // more than nodes: every run throws
  const GlobalPoolGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::set_global_thread_count(threads);  // pooled runs rethrow to the caller
    EXPECT_THROW(run_experiment(shared_env(), config), std::invalid_argument);
  }
}

TEST(Evaluation, OutcomeLookupByKind) {
  ExperimentConfig config = quick_config();
  config.runs = 2;
  config.strategies = {place::StrategyKind::kRandom};
  const auto result = run_experiment(shared_env(), config);
  EXPECT_EQ(result.outcome_of(place::StrategyKind::kRandom).name, "random");
  EXPECT_THROW(result.outcome_of(place::StrategyKind::kOptimal), std::invalid_argument);
}

TEST(Evaluation, ParallelRunsAreBitIdenticalToSerial) {
  // Runs spread over the global pool; each run's own pool work (the rpc
  // collector's fetch fan-out, the evaluators) runs inline in its chunk.
  // Every registered collector, the simulated-network ones included.
  const GlobalPoolGuard guard;
  for (const std::string& collector : collector_names()) {
    ExperimentConfig config = quick_config();
    config.collector = collector;
    ThreadPool::set_global_thread_count(1);
    const auto serial = run_experiment(shared_env(), config);
    ThreadPool::set_global_thread_count(4);
    const auto parallel = run_experiment(shared_env(), config);
    ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
    for (std::size_t s = 0; s < serial.outcomes.size(); ++s) {
      EXPECT_EQ(serial.outcomes[s].per_run_delay_ms, parallel.outcomes[s].per_run_delay_ms)
          << collector << " / " << serial.outcomes[s].name;
    }
  }
}

TEST(Evaluation, AllCoordinateSystemsDriveTheHarness) {
  // Vivaldi and GNP environments produce valid experiments with the same
  // qualitative ordering (ordering vs random is the robust property).
  topo::PlanetLabModelConfig topo_config;
  topo_config.node_count = 100;
  for (const auto system : {CoordSystem::kVivaldi, CoordSystem::kGnp}) {
    coord::GossipConfig gossip;
    gossip.rounds = 128;
    const Environment env(topo_config, 42, system, gossip);
    ExperimentConfig config;
    config.num_datacenters = 12;
    config.runs = 6;
    config.strategies = {place::StrategyKind::kRandom,
                         place::StrategyKind::kOnlineClustering};
    const auto result = run_experiment(env, config);
    EXPECT_LT(result.mean_of(place::StrategyKind::kOnlineClustering),
              result.mean_of(place::StrategyKind::kRandom))
        << coord_system_name(system);
  }
}

TEST(Evaluation, EmbeddingQualityIsReportedPerEnvironment) {
  const auto quality = shared_env().embedding_quality();
  EXPECT_GT(quality.absolute_error_ms.count, 0u);
  EXPECT_LT(quality.absolute_error_ms.p50, 25.0);
}

TEST(Evaluation, CoordSystemNames) {
  EXPECT_EQ(coord_system_name(CoordSystem::kRnp), "rnp");
  EXPECT_EQ(coord_system_name(CoordSystem::kVivaldi), "vivaldi");
  EXPECT_EQ(coord_system_name(CoordSystem::kGnp), "gnp");
}

}  // namespace
}  // namespace geored::core
