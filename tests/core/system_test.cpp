#include "core/system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/random.h"
#include "topology/planetlab_model.h"

namespace geored::core {
namespace {

/// Small world for event-driven integration tests: the first `dcs` topology
/// nodes are candidate data centers, the rest are clients. Coordinates are
/// perfect (we hand the true 2-D geometry to the system) so tests isolate
/// system mechanics from embedding error.
struct SimWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  std::vector<topo::NodeId> clients;
  std::vector<Point> client_coords;

  explicit SimWorld(std::size_t dcs = 5, std::size_t client_count = 30,
                    std::uint64_t seed = 42)
      : topology(topo::Topology(std::vector<topo::NodeInfo>(0), SymMatrix(0), {})) {
    Rng rng(seed);
    const std::size_t n = dcs + client_count;
    std::vector<Point> positions;
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back(Point{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
    }
    SymMatrix rtt(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        rtt.set(i, j, std::max(0.1, positions[i].distance_to(positions[j])));
      }
    }
    topology = topo::Topology(std::vector<topo::NodeInfo>(n), std::move(rtt), {});
    for (std::size_t i = 0; i < dcs; ++i) {
      candidates.push_back({static_cast<topo::NodeId>(i), positions[i],
                            std::numeric_limits<double>::infinity()});
    }
    for (std::size_t i = dcs; i < n; ++i) {
      clients.push_back(static_cast<topo::NodeId>(i));
      client_coords.push_back(positions[i]);
    }
  }
};

SystemConfig fast_config() {
  SystemConfig config;
  config.manager.replication_degree = 2;
  config.manager.summarizer.max_clusters = 4;
  config.epoch_ms = 10'000.0;
  config.selection = ReplicaSelection::kTrueClosest;
  return config;
}

TEST(System, RunsAndRecordsAccessDelays) {
  SimWorld world;
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.001));
  ReplicationSystem system(simulator, network, world.candidates, world.clients,
                           world.client_coords, workload, world.candidates[0].node,
                           fast_config(), 1);
  system.run(50'000.0);

  // ~30 clients x 0.001/ms x 50 s = ~1500 accesses.
  EXPECT_GT(system.overall_delay().count(), 1000u);
  EXPECT_LT(system.overall_delay().count(), 2200u);
  EXPECT_GT(system.overall_delay().mean(), 0.0);
  EXPECT_EQ(system.failed_accesses(), 0u);
  // Five epoch ticks fire, but the fifth lands exactly at the horizon and
  // its summary round-trips cannot complete before time runs out.
  EXPECT_EQ(system.epoch_history().size(), 4u);

  // Every traffic class except migration-if-stable was exercised.
  const auto& stats = network.stats();
  EXPECT_GT(stats.bytes[static_cast<std::size_t>(sim::TrafficClass::kAccess)], 0u);
  EXPECT_GT(stats.bytes[static_cast<std::size_t>(sim::TrafficClass::kControl)], 0u);
  // One summary reply per live replica per epoch, each sized by
  // cluster::serialized_size (u32 count + clusters): the exact total pins
  // the wire-size rule.
  EXPECT_EQ(stats.bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)], 2052u);
}

TEST(System, AccessDelayEqualsRttOfChosenReplica) {
  // One client, one replica possible (k = 1, 1 candidate): the recorded
  // delay must be exactly the client-replica RTT.
  SimWorld world(1, 3, 7);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.0005));
  SystemConfig config = fast_config();
  config.manager.replication_degree = 1;
  ReplicationSystem system(simulator, network, world.candidates, world.clients,
                           world.client_coords, workload, world.candidates[0].node, config,
                           1);
  system.run(20'000.0);
  ASSERT_GT(system.overall_delay().count(), 0u);
  // All three clients read from the single replica, so every observed delay
  // is one of the client RTTs: min and max are the RTT set's extremes.
  std::vector<double> rtts;
  for (const auto client : world.clients) {
    rtts.push_back(world.topology.rtt_ms(client, world.candidates[0].node));
  }
  std::sort(rtts.begin(), rtts.end());
  EXPECT_NEAR(system.overall_delay().min(), rtts.front(), 1e-6);
  EXPECT_NEAR(system.overall_delay().max(), rtts.back(), 1e-6);
}

TEST(System, MigrationImprovesDelayOverEpochs) {
  // Clients clustered in one corner; initial random placement is likely far.
  // After the first epoch the system should have migrated and later epochs
  // must not be slower than the first.
  SimWorld world(8, 40, 3);
  // Move all clients into a tight cluster near candidate 0's corner.
  sim::Simulator simulator;
  for (auto& coord : world.client_coords) coord = Point{10.0, 10.0};
  // Rebuild RTTs so ground truth matches the clustered geometry.
  const std::size_t n = 8 + 40;
  std::vector<Point> positions;
  Rng rng(3);
  for (std::size_t i = 0; i < 8; ++i) {
    positions.push_back(Point{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  }
  for (std::size_t i = 8; i < n; ++i) {
    positions.push_back(Point{rng.normal(10.0, 3.0), rng.normal(10.0, 3.0)});
  }
  SymMatrix rtt(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      rtt.set(i, j, std::max(0.1, positions[i].distance_to(positions[j])));
    }
  }
  world.topology = topo::Topology(std::vector<topo::NodeInfo>(n), std::move(rtt), {});
  for (std::size_t i = 0; i < 8; ++i) world.candidates[i].coords = positions[i];
  for (std::size_t i = 0; i < 40; ++i) world.client_coords[i] = positions[8 + i];

  sim::Network network(simulator, world.topology);
  wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.002));
  SystemConfig config = fast_config();
  config.manager.replication_degree = 1;
  ReplicationSystem system(simulator, network, world.candidates, world.clients,
                           world.client_coords, workload, world.candidates[0].node, config,
                           999);
  system.run(60'000.0);

  const auto& epochs = system.epoch_history();
  ASSERT_GE(epochs.size(), 3u);
  const double first = epochs.front().mean_delay_ms;
  const double last = epochs.back().mean_delay_ms;
  EXPECT_LE(last, first + 1e-9);
  // The final placement serves the cluster from its best candidate.
  double best_possible = 1e18;
  for (const auto& c : world.candidates) {
    double total = 0.0;
    for (const auto client : world.clients) {
      total += world.topology.rtt_ms(client, c.node);
    }
    best_possible = std::min(best_possible, total / 40.0);
  }
  EXPECT_NEAR(last, best_possible, best_possible * 0.25 + 2.0);
}

TEST(System, FailoverServesFromNextClosestReplica) {
  SimWorld world(4, 20, 11);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.001));
  SystemConfig config = fast_config();
  config.manager.replication_degree = 2;
  ReplicationSystem system(simulator, network, world.candidates, world.clients,
                           world.client_coords, workload, world.candidates[0].node, config,
                           5);
  // Fail one replica for a window; the other keeps serving.
  const auto initial = system.manager().placement();
  system.schedule_failure(initial[0], 2'000.0, 6'000.0);
  system.run(9'000.0);
  EXPECT_EQ(system.failed_accesses(), 0u);
  EXPECT_GT(system.overall_delay().count(), 0u);
}

TEST(System, EpochDuringFailureMovesReplicaOffDeadNode) {
  SimWorld world(6, 20, 31);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.002));
  SystemConfig config = fast_config();
  config.manager.replication_degree = 2;
  ReplicationSystem system(simulator, network, world.candidates, world.clients,
                           world.client_coords, workload, world.candidates[0].node, config,
                           41);
  const auto initial = system.manager().placement();
  // Fail one replica across the first two epoch boundaries (10 s, 20 s).
  system.schedule_failure(initial[0], 5'000.0, 25'000.0);
  system.run(40'000.0);

  // Every epoch that ran while the node was down placed replicas elsewhere.
  bool saw_failure_epoch = false;
  for (const auto& epoch : system.epoch_history()) {
    const double epoch_time = static_cast<double>(epoch.epoch + 1) * config.epoch_ms;
    if (epoch_time > 5'000.0 && epoch_time <= 25'000.0) {
      saw_failure_epoch = true;
      for (const auto node : epoch.placement) EXPECT_NE(node, initial[0]);
    }
  }
  EXPECT_TRUE(saw_failure_epoch);
  EXPECT_EQ(system.failed_accesses(), 0u);
}

TEST(System, AllReplicasDownCountsFailedAccesses) {
  SimWorld world(2, 10, 13);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.001));
  SystemConfig config = fast_config();
  config.manager.replication_degree = 2;
  ReplicationSystem system(simulator, network, world.candidates, world.clients,
                           world.client_coords, workload, world.candidates[0].node, config,
                           5);
  const auto initial = system.manager().placement();
  for (const auto node : initial) system.schedule_failure(node, 1'000.0, 5'000.0);
  system.run(8'000.0);
  EXPECT_GT(system.failed_accesses(), 0u);
  EXPECT_GT(system.overall_delay().count(), 0u);  // service resumed after repair
}

TEST(System, CoordinateBasedSelectionWorks) {
  SimWorld world(5, 25, 17);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.001));
  SystemConfig config = fast_config();
  config.selection = ReplicaSelection::kByCoordinates;
  ReplicationSystem system(simulator, network, world.candidates, world.clients,
                           world.client_coords, workload, world.candidates[0].node, config,
                           23);
  system.run(30'000.0);
  EXPECT_GT(system.overall_delay().count(), 0u);
  EXPECT_EQ(system.failed_accesses(), 0u);
}

TEST(System, OracleSelectionNeverSlowerThanCoordinateSelection) {
  // With noisy coordinates, picking replicas by predicted distance
  // occasionally picks wrong; the oracle (true closest) is a lower bound.
  SimWorld world(6, 25, 47);
  // Perturb the coordinates the clients route by (ground truth unchanged).
  Rng noise(9);
  auto noisy_coords = world.client_coords;
  for (auto& coord : noisy_coords) {
    coord[0] += noise.normal(0.0, 40.0);
    coord[1] += noise.normal(0.0, 40.0);
  }
  const auto run = [&](ReplicaSelection selection, const std::vector<Point>& coords) {
    sim::Simulator simulator;
    sim::Network network(simulator, world.topology);
    wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.001));
    SystemConfig config = fast_config();
    config.selection = selection;
    ReplicationSystem system(simulator, network, world.candidates, world.clients, coords,
                             workload, world.candidates[0].node, config, 3);
    system.run(30'000.0);
    return system.overall_delay().mean();
  };
  const double oracle = run(ReplicaSelection::kTrueClosest, world.client_coords);
  const double by_noisy_coords = run(ReplicaSelection::kByCoordinates, noisy_coords);
  EXPECT_LE(oracle, by_noisy_coords + 1e-9);
}

TEST(System, BandwidthLimitedNetworkSlowsLargeTransfers) {
  // With finite bandwidth, the response (64 KB) dominates the access delay
  // and migration transfers take visible time.
  SimWorld world(4, 15, 37);
  sim::Simulator fast_sim, slow_sim;
  sim::Network fast_net(fast_sim, world.topology);
  sim::NetworkConfig slow_config;
  slow_config.bandwidth_bytes_per_ms = 64.0 * 1024.0;  // 64 KB/ms
  sim::Network slow_net(slow_sim, world.topology, slow_config);

  wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.001));
  SystemConfig config = fast_config();
  ReplicationSystem fast_system(fast_sim, fast_net, world.candidates, world.clients,
                                world.client_coords, workload, world.candidates[0].node,
                                config, 3);
  ReplicationSystem slow_system(slow_sim, slow_net, world.candidates, world.clients,
                                world.client_coords, workload, world.candidates[0].node,
                                config, 3);
  fast_system.run(20'000.0);
  slow_system.run(20'000.0);
  ASSERT_GT(fast_system.overall_delay().count(), 0u);
  // Serialization adds exactly ~1 ms (64 KB at 64 KB/ms) plus request time.
  EXPECT_GT(slow_system.overall_delay().mean(),
            fast_system.overall_delay().mean() + 0.9);
}

TEST(System, JitteredNetworkStillDeterministic) {
  SimWorld world(3, 10, 41);
  sim::NetworkConfig config;
  config.jitter = 0.1;
  const auto run = [&] {
    sim::Simulator simulator;
    sim::Network network(simulator, world.topology, config);
    wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.001));
    ReplicationSystem system(simulator, network, world.candidates, world.clients,
                             world.client_coords, workload, world.candidates[0].node,
                             fast_config(), 3);
    system.run(15'000.0);
    return std::pair{system.overall_delay().count(), system.overall_delay().mean()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Two data centers at identical coordinates (and so identical RTTs), with
// the higher NodeId first in both the candidate list and the placement:
// both selection modes read from the lower NodeId.
TEST(System, ReplicaTiesGoToTheLowestNodeId) {
  const Point shared{100.0, 100.0};
  SymMatrix rtt(3);
  rtt.set(0, 1, 0.1);
  rtt.set(0, 2, 50.0);
  rtt.set(1, 2, 50.0);
  const topo::Topology topology(std::vector<topo::NodeInfo>(3), std::move(rtt), {});
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<place::CandidateInfo> twins = {{1, shared, inf}, {0, shared, inf}};
  wl::StaticWorkload workload(std::vector<double>{0.01});
  for (const auto selection :
       {ReplicaSelection::kByCoordinates, ReplicaSelection::kTrueClosest}) {
    bool checked = false;
    for (std::uint64_t seed = 1; seed < 64 && !checked; ++seed) {
      sim::Simulator simulator;
      sim::Network network(simulator, topology);
      SystemConfig config = fast_config();
      config.epoch_ms = 1e9;  // no epoch: routing only
      config.selection = selection;
      ReplicationSystem system(simulator, network, twins, {2}, {Point{0.0, 0.0}}, workload, 0,
                               config, seed);
      if (system.manager().placement().front() != 1) continue;
      system.run(5'000.0);
      EXPECT_GT(system.overall_delay().count(), 0u);
      EXPECT_FALSE(system.manager().summary_of(0).empty());
      EXPECT_TRUE(system.manager().summary_of(1).empty());
      checked = true;
    }
    EXPECT_TRUE(checked) << "no seed lists the higher node first";
  }
}

TEST(System, RejectsMismatchedInputs) {
  SimWorld world;
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  wl::StaticWorkload workload(std::vector<double>(world.clients.size() - 1, 0.001));
  EXPECT_THROW(ReplicationSystem(simulator, network, world.candidates, world.clients,
                                 world.client_coords, workload, world.candidates[0].node,
                                 fast_config(), 1),
               std::invalid_argument);
}

TEST(System, RunIsSingleShot) {
  SimWorld world(3, 5, 29);
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  wl::StaticWorkload workload(std::vector<double>(world.clients.size(), 0.0001));
  ReplicationSystem system(simulator, network, world.candidates, world.clients,
                           world.client_coords, workload, world.candidates[0].node,
                           fast_config(), 1);
  system.run(1'000.0);
  EXPECT_THROW(system.run(2'000.0), std::invalid_argument);
}

}  // namespace
}  // namespace geored::core
