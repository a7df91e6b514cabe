// Decentralized placement epochs through DecentralizedCollector: the
// replicas exchange summaries all-to-all and each decides locally.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/random.h"
#include "core/epoch_pipeline.h"
#include "placement/strategy.h"
#include "topology/topology.h"

namespace geored::core {
namespace {

struct DecWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  std::vector<SummarySource> sources;  ///< one per replica holder, in node order

  explicit DecWorld(std::size_t dc_count, std::size_t replicas, std::uint64_t seed)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    Rng rng(seed);
    std::vector<Point> positions;
    for (std::size_t i = 0; i < dc_count; ++i) {
      positions.push_back(Point{rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)});
    }
    SymMatrix rtt(dc_count);
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
    // The first `replicas` candidates currently hold the object; each
    // summarizes a client population near itself.
    for (std::size_t r = 0; r < replicas; ++r) {
      std::vector<cluster::MicroCluster> clusters;
      for (int c = 0; c < 4; ++c) {
        cluster::MicroCluster micro;
        for (int p = 0; p < 20; ++p) {
          Point point = positions[r];
          point[0] += rng.normal(0.0, 15.0);
          point[1] += rng.normal(0.0, 15.0);
          micro.absorb(point, 1.0);
        }
        clusters.push_back(micro);
      }
      sources.push_back({static_cast<topo::NodeId>(r), std::move(clusters)});
    }
  }

  /// One decentralized epoch over `simulator`'s network at degree `k`.
  CollectedSummaries collect(sim::Simulator& simulator, sim::Network& network, std::size_t k,
                             std::uint64_t epoch_seed) const {
    DecentralizedCollector collector(simulator, network);
    return collector.collect(sources, {candidates, k, epoch_seed});
  }
};

std::size_t summary_messages(const sim::Network& network) {
  return network.stats().messages[static_cast<std::size_t>(sim::TrafficClass::kSummary)];
}

TEST(Decentralized, AllReplicasAgreeOnTheProposal) {
  // collect() checks that every replica decided and that all decisions are
  // identical (an InternalError otherwise), then returns the agreed one.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    DecWorld world(12, 3, seed);
    sim::Simulator simulator;
    sim::Network network(simulator, world.topology);
    CollectedSummaries collected;
    ASSERT_NO_THROW(collected = world.collect(simulator, network, 3, seed)) << "seed " << seed;
    ASSERT_TRUE(collected.agreed_proposal.has_value()) << "seed " << seed;
    EXPECT_EQ(collected.agreed_proposal->size(), 3u);
  }
}

TEST(Decentralized, MatchesTheCentralizedComputation) {
  DecWorld world(10, 3, 7);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto collected = world.collect(simulator, network, 3, 99);

  // Central reference: identical summaries in source-id order + same seed.
  place::PlacementInput input;
  input.candidates = world.candidates;
  input.k = 3;
  input.seed = 99;
  for (const auto& source : world.sources) {
    for (const auto& micro : source.clusters) input.summaries.push_back(micro);
  }
  const auto central = place::make_strategy("online")->place(input);
  ASSERT_TRUE(collected.agreed_proposal.has_value());
  EXPECT_EQ(*collected.agreed_proposal, central);
  // The collected summaries are that same source-ordered input.
  EXPECT_EQ(collected.summaries.size(), input.summaries.size());
}

TEST(Decentralized, ExchangesKSquaredSummaries) {
  DecWorld world(12, 4, 3);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto collected = world.collect(simulator, network, 3, 1);
  EXPECT_EQ(summary_messages(network), 4u * 3u);  // k*(k-1) with k = 4 holders
  EXPECT_GT(collected.summary_bytes, 0u);
  EXPECT_EQ(collected.summary_bytes,
            network.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)]);
  // Completion (the simulator runs to the last decision) is the slowest
  // pairwise half-RTT among holders.
  double worst = 0.0;
  for (topo::NodeId a = 0; a < 4; ++a) {
    for (topo::NodeId b = 0; b < 4; ++b) {
      if (a != b) worst = std::max(worst, world.topology.rtt_ms(a, b) / 2.0);
    }
  }
  EXPECT_NEAR(simulator.now(), worst, 1e-9);
}

TEST(Decentralized, SingleReplicaDecidesAlone) {
  DecWorld world(8, 1, 11);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  const auto collected = world.collect(simulator, network, 2, 5);
  ASSERT_TRUE(collected.agreed_proposal.has_value());
  EXPECT_EQ(collected.agreed_proposal->size(), 2u);
  EXPECT_EQ(summary_messages(network), 0u);
  EXPECT_EQ(collected.summary_bytes, 0u);
  EXPECT_EQ(simulator.now(), 0.0);
}

TEST(Decentralized, ValidatesArguments) {
  DecWorld world(8, 2, 1);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  DecentralizedCollector collector(simulator, network);
  const std::vector<place::CandidateInfo> no_candidates;
  EXPECT_THROW(collector.collect(world.sources, {no_candidates, 2, 1}), std::invalid_argument);
  EXPECT_THROW(collector.collect({}, {world.candidates, 2, 1}), std::invalid_argument);
}

TEST(Decentralized, RefusesASimulatorWithForeignEvents) {
  // collect() runs the simulator to completion, so an event it does not own
  // would run inside the collection round; the collector refuses instead.
  DecWorld world(8, 3, 1);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  bool foreign_ran = false;
  simulator.schedule_at(1.0, [&foreign_ran] { foreign_ran = true; });
  EXPECT_THROW(world.collect(simulator, network, 2, 1), std::invalid_argument);
  EXPECT_EQ(simulator.pending_events(), 1u);
  EXPECT_FALSE(foreign_ran);
}

}  // namespace
}  // namespace geored::core
