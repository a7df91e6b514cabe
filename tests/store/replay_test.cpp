#include "store/replay.h"

#include <gtest/gtest.h>

#include <limits>

#include "topology/planetlab_model.h"
#include "netcoord/embedding.h"

namespace geored::store {
namespace {

struct ReplayWorld {
  topo::Topology topology;
  std::vector<place::CandidateInfo> candidates;
  std::vector<topo::NodeId> clients;
  std::vector<Point> client_coords;

  ReplayWorld()
      : topology(topo::generate_planetlab_like(
            [] {
              topo::PlanetLabModelConfig config;
              config.node_count = 60;
              return config;
            }(),
            7)) {
    coord::GossipConfig gossip;
    gossip.rounds = 96;
    const auto coords = coord::run_rnp(topology, coord::RnpConfig{}, gossip, 7);
    for (std::size_t i = 0; i < 10; ++i) {
      candidates.push_back({static_cast<topo::NodeId>(i), coords[i].position,
                            std::numeric_limits<double>::infinity()});
    }
    for (std::size_t i = 10; i < topology.size(); ++i) {
      clients.push_back(static_cast<topo::NodeId>(i));
      client_coords.push_back(coords[i].position);
    }
  }
};

wl::Trace small_trace(std::size_t clients, double duration_ms, std::uint64_t seed) {
  wl::SessionTraceConfig config;
  config.clients = clients;
  config.objects = 50;
  config.duration_ms = duration_ms;
  config.session_rate = 1.0 / 20'000.0;
  config.mean_think_time_ms = 500.0;
  config.write_fraction = 0.1;
  return wl::generate_session_trace(config, seed);
}

TEST(Replay, DrivesTheStoreEndToEnd) {
  ReplayWorld world;
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  StoreConfig config;
  config.quorum = {3, 1, 2};
  config.groups = 4;
  ReplicatedKvStore store(simulator, network, world.candidates, config, 1);

  const auto trace = small_trace(world.clients.size(), 180'000.0, 3);
  ASSERT_GT(trace.size(), 50u);
  ReplayConfig replay_config;
  replay_config.placement_epoch_ms = 60'000.0;
  const auto report = replay_trace(simulator, store, trace, world.clients,
                                   world.client_coords, replay_config);

  const auto stats = trace.stats();
  // Every read in the trace completed; writes include the seeding pass.
  const auto expected_writes = static_cast<std::size_t>(
      stats.write_fraction * static_cast<double>(trace.size()) + 0.5);
  EXPECT_EQ(report.reads, trace.size() - expected_writes);
  EXPECT_GE(report.writes, stats.distinct_objects);
  EXPECT_GT(report.get_mean_ms, 0.0);
  // Epoch ticks land every 60 s up to the trace's last event.
  const auto expected_epochs =
      static_cast<std::size_t>((trace.duration_ms() + 1.0) / 60'000.0);
  EXPECT_EQ(report.epochs, expected_epochs);
  EXPECT_EQ(report.get_mean_by_epoch.size(), expected_epochs);
  // Seeding means reads only miss in the short window where they race a
  // group migration whose data is still in flight (r = 1 here).
  EXPECT_LE(report.not_found_reads, report.reads / 50);
}

TEST(Replay, PlacementEpochsImproveLatencyOnSkewedTraces) {
  // All trace clients map onto a small set of co-located nodes, so placement
  // epochs should pull replicas toward them: later epochs no slower than
  // the first.
  ReplayWorld world;
  // Pick the clients of one region only.
  std::vector<topo::NodeId> regional_clients;
  std::vector<Point> regional_coords;
  const auto target_region = world.topology.node(world.clients.front()).region;
  for (std::size_t i = 0; i < world.clients.size(); ++i) {
    if (world.topology.node(world.clients[i]).region == target_region) {
      regional_clients.push_back(world.clients[i]);
      regional_coords.push_back(world.client_coords[i]);
    }
  }
  ASSERT_GE(regional_clients.size(), 2u);

  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  StoreConfig config;
  config.quorum = {2, 1, 1};
  config.groups = 2;
  config.manager.migration.min_relative_gain = 0.02;
  ReplicatedKvStore store(simulator, network, world.candidates, config, 99);

  const auto trace = small_trace(regional_clients.size(), 300'000.0, 5);
  ReplayConfig replay_config;
  replay_config.placement_epoch_ms = 50'000.0;
  const auto report = replay_trace(simulator, store, trace, regional_clients,
                                   regional_coords, replay_config);
  ASSERT_GE(report.get_mean_by_epoch.size(), 4u);
  const double first = report.get_mean_by_epoch.front();
  const double last = report.get_mean_by_epoch.back();
  EXPECT_LE(last, first + 1e-9);
}

TEST(Replay, StaticPlacementWhenEpochsDisabled) {
  ReplayWorld world;
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  StoreConfig config;
  config.quorum = {2, 1, 1};
  ReplicatedKvStore store(simulator, network, world.candidates, config, 1);
  const auto initial = store.placement_of_group(0);

  const auto trace = small_trace(world.clients.size(), 60'000.0, 9);
  ReplayConfig replay_config;
  replay_config.placement_epoch_ms = 0.0;
  const auto report = replay_trace(simulator, store, trace, world.clients,
                                   world.client_coords, replay_config);
  EXPECT_EQ(report.epochs, 0u);
  EXPECT_EQ(report.migrations, 0u);
  EXPECT_EQ(store.placement_of_group(0), initial);
}

TEST(Replay, EmptyTraceIsANoOp) {
  ReplayWorld world;
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  StoreConfig config;
  ReplicatedKvStore store(simulator, network, world.candidates, config, 1);
  const auto report = replay_trace(simulator, store, wl::Trace{}, world.clients,
                                   world.client_coords);
  EXPECT_EQ(report.reads, 0u);
  EXPECT_EQ(report.writes, 0u);
}

TEST(Replay, ValidatesArguments) {
  ReplayWorld world;
  sim::Simulator simulator;
  sim::Network network(simulator, world.topology);
  StoreConfig config;
  ReplicatedKvStore store(simulator, network, world.candidates, config, 1);
  wl::Trace trace;
  trace.append({0.0, 0, 1, 10, false});
  EXPECT_THROW(replay_trace(simulator, store, trace, {}, {}), std::invalid_argument);
  EXPECT_THROW(
      replay_trace(simulator, store, trace, world.clients, {world.client_coords[0]}),
      std::invalid_argument);
}

}  // namespace
}  // namespace geored::store
