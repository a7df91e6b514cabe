// The two-level aggregation tree: plan_aggregation's aggregator choice and
// HierarchicalCollector's collection over the simulated network, against
// the flat-collection baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/random.h"
#include "core/epoch_pipeline.h"
#include "reference/flat_collection.h"
#include "topology/topology.h"

namespace geored::core {
namespace {

/// 1-D world: data centers at x = 0, 100, ..., and summary sources holding
/// micro-clusters of synthetic populations near their own location.
struct AggWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  std::vector<SummarySource> sources;

  explicit AggWorld(std::size_t dc_count, std::size_t source_count, std::uint64_t seed)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    SymMatrix rtt(dc_count);
    std::vector<Point> positions;
    for (std::size_t i = 0; i < dc_count; ++i) {
      positions.push_back(Point{100.0 * static_cast<double>(i)});
    }
    for (std::size_t i = 0; i < dc_count; ++i) {
      for (std::size_t j = i + 1; j < dc_count; ++j) {
        rtt.set(i, j, std::max(0.1, positions[i].distance_to(positions[j])));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(dc_count), std::move(rtt), {});
    for (std::size_t i = 0; i < dc_count; ++i) {
      candidates.push_back({static_cast<topo::NodeId>(i), positions[i],
                            std::numeric_limits<double>::infinity()});
    }
    Rng rng(seed);
    for (std::size_t s = 0; s < source_count; ++s) {
      SummarySource source;
      source.node = static_cast<topo::NodeId>(s % dc_count);
      const double center = 100.0 * static_cast<double>(s % dc_count);
      for (int c = 0; c < 4; ++c) {
        cluster::MicroCluster micro;
        for (int p = 0; p < 25; ++p) {
          micro.absorb(Point{center + rng.normal(0.0, 10.0)}, 1.0);
        }
        source.clusters.push_back(micro);
      }
      sources.push_back(std::move(source));
    }
  }

  /// One tree collection over a fresh simulator, with root 0 and the plan
  /// seeded 7 (the seed every plan in this file uses).
  CollectedSummaries collect_tree(const AggregationConfig& config, sim::Simulator& simulator,
                                  sim::Network& network) const {
    HierarchicalCollector collector(simulator, network, /*root=*/0, config);
    return collector.collect(sources, {candidates, 3, 7});
  }

  std::uint64_t total_count() const {
    std::uint64_t total = 0;
    for (const auto& source : sources) {
      for (const auto& micro : source.clusters) total += micro.count();
    }
    return total;
  }
};

TEST(Aggregation, PlanAssignsEverySourceToNearestAggregator) {
  const AggWorld world(10, 20, 1);
  AggregationConfig config;
  config.aggregator_count = 3;
  const auto plan = plan_aggregation(world.candidates, world.sources, config, 7);
  ASSERT_EQ(plan.aggregators.size(), 3u);
  std::set<topo::NodeId> unique(plan.aggregators.begin(), plan.aggregators.end());
  EXPECT_EQ(unique.size(), 3u);
  for (const auto& source : world.sources) {
    ASSERT_TRUE(plan.parent.contains(source.node));
    const auto chosen = plan.parent.at(source.node);
    // Verify nearest-aggregator assignment.
    const Point& coords = world.candidates[source.node].coords;
    for (const auto other : plan.aggregators) {
      EXPECT_LE(coords.distance_to(world.candidates[chosen].coords),
                coords.distance_to(world.candidates[other].coords) + 1e-9);
    }
  }
}

TEST(Aggregation, DefaultAggregatorCountIsSqrtOfSources) {
  const AggWorld world(10, 9, 1);
  const auto plan = plan_aggregation(world.candidates, world.sources, {}, 7);
  EXPECT_EQ(plan.aggregators.size(), 3u);  // ceil(sqrt(9))
}

TEST(Aggregation, PlanValidation) {
  const AggWorld world(4, 4, 1);
  EXPECT_THROW(plan_aggregation({}, world.sources, {}, 7), std::invalid_argument);
  EXPECT_THROW(plan_aggregation(world.candidates, {}, {}, 7), std::invalid_argument);
}

TEST(Aggregation, RefusesASimulatorWithForeignEvents) {
  // collect() runs the simulator to completion, so an event it does not own
  // would run inside the collection round; the collector refuses instead.
  const AggWorld world(4, 4, 1);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  bool foreign_ran = false;
  simulator.schedule_at(1.0, [&foreign_ran] { foreign_ran = true; });
  EXPECT_THROW(world.collect_tree({}, simulator, network), std::invalid_argument);
  EXPECT_EQ(simulator.pending_events(), 1u);
  EXPECT_FALSE(foreign_ran);
}

TEST(Aggregation, TreeConservesAccessCounts) {
  const AggWorld world(8, 24, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  AggregationConfig config;
  config.max_clusters_per_aggregator = 16;
  const auto plan = plan_aggregation(world.candidates, world.sources, config, 7);
  const auto result = world.collect_tree(config, simulator, network);
  std::uint64_t merged_count = 0;
  for (const auto& micro : result.summaries) merged_count += micro.count();
  EXPECT_EQ(merged_count, world.total_count());
  EXPECT_GT(simulator.now(), 0.0);  // completion: the root had everything
  // Root holds at most aggregators * m-hat clusters.
  EXPECT_LE(result.summaries.size(), plan.aggregators.size() * 16);
}

TEST(Aggregation, RootBandwidthIsBoundedUnlikeFlat) {
  const AggWorld world(10, 100, 5);
  AggregationConfig config;
  config.max_clusters_per_aggregator = 16;

  sim::Simulator tree_sim;
  sim::Network tree_net(tree_sim, world.topology);
  const auto tree = world.collect_tree(config, tree_sim, tree_net);

  sim::Simulator flat_sim;
  sim::Network flat_net(flat_sim, world.topology);
  const auto flat = run_flat_collection(flat_sim, flat_net, world.sources, 0);

  // summary_bytes is what the root received.
  EXPECT_LT(tree.summary_bytes, flat.summary_bytes / 2);
  // Both deliver all the mass.
  std::uint64_t tree_count = 0, flat_count = 0;
  for (const auto& micro : tree.summaries) tree_count += micro.count();
  for (const auto& micro : flat.summaries) flat_count += micro.count();
  EXPECT_EQ(tree_count, flat_count);
}

TEST(Aggregation, MergedSummaryPreservesPopulationGeometry) {
  // Populations at x = 0, 100, ..., 700 must all be visible in the merged
  // summary (a centroid within 30 of each centre).
  const AggWorld world(8, 32, 9);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  AggregationConfig config;
  config.max_clusters_per_aggregator = 12;
  const auto result = world.collect_tree(config, simulator, network);
  for (std::size_t centre = 0; centre < 8; ++centre) {
    const Point target{100.0 * static_cast<double>(centre)};
    double best = 1e18;
    for (const auto& micro : result.summaries) {
      best = std::min(best, micro.centroid().distance_to(target));
    }
    EXPECT_LT(best, 30.0) << "population " << centre;
  }
}

TEST(Aggregation, TwoHopCollectionTakesLongerThanFlat) {
  const AggWorld world(10, 40, 11);
  sim::Simulator tree_sim;
  sim::Network tree_net(tree_sim, world.topology);
  world.collect_tree({}, tree_sim, tree_net);

  sim::Simulator flat_sim;
  sim::Network flat_net(flat_sim, world.topology);
  run_flat_collection(flat_sim, flat_net, world.sources, 0);

  // The bandwidth saving costs one extra hop of latency: both collections
  // run their simulator to completion, so now() is when the root had all.
  EXPECT_GE(tree_sim.now(), flat_sim.now());
}

TEST(Aggregation, NearestAggregatorTiesGoToFirstInAggregatorOrder) {
  // Every candidate at one point: every source is equidistant from every
  // aggregator, and the strict-`<` first-winner rule hands each one to the
  // first aggregator in plan order — list order, not the lowest NodeId.
  // The candidates are listed in descending NodeId order so the two rules
  // disagree.
  AggWorld world(10, 20, 13);
  std::reverse(world.candidates.begin(), world.candidates.end());
  for (auto& candidate : world.candidates) candidate.coords = Point{450.0};
  AggregationConfig config;
  config.aggregator_count = 3;
  const auto plan = plan_aggregation(world.candidates, world.sources, config, 7);
  ASSERT_EQ(plan.aggregators.size(), 3u);
  ASSERT_NE(plan.aggregators.front(),
            *std::min_element(plan.aggregators.begin(), plan.aggregators.end()))
      << "the case must tell list order from NodeId order";
  for (const auto& source : world.sources) {
    EXPECT_EQ(plan.parent.at(source.node), plan.aggregators.front()) << source.node;
  }
}

}  // namespace
}  // namespace geored::core
