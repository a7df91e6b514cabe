#include "sim/network.h"

#include <gtest/gtest.h>

#include "topology/topology.h"

namespace geored::sim {
namespace {

topo::Topology square_topology() {
  SymMatrix rtt(3);
  rtt.set(0, 1, 100.0);
  rtt.set(0, 2, 60.0);
  rtt.set(1, 2, 80.0);
  return topo::Topology(std::vector<topo::NodeInfo>(3), std::move(rtt), {});
}

TEST(Network, DeliversAfterHalfRtt) {
  Simulator simulator;
  const auto topology = square_topology();
  Network network(simulator, topology);
  double delivered_at = -1.0;
  network.send(0, 1, 100, TrafficClass::kAccess, [&] { delivered_at = simulator.now(); });
  simulator.run();
  EXPECT_DOUBLE_EQ(delivered_at, 50.0);
}

TEST(Network, LoopbackIsImmediate) {
  Simulator simulator;
  const auto topology = square_topology();
  Network network(simulator, topology);
  double delivered_at = -1.0;
  network.send(2, 2, 100, TrafficClass::kControl, [&] { delivered_at = simulator.now(); });
  simulator.run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.0);
}

TEST(Network, BandwidthAddsSerializationDelay) {
  Simulator simulator;
  const auto topology = square_topology();
  NetworkConfig config;
  config.bandwidth_bytes_per_ms = 1000.0;  // 1 KB per ms
  Network network(simulator, topology, config);
  double delivered_at = -1.0;
  network.send(0, 2, 5000, TrafficClass::kMigration,
               [&] { delivered_at = simulator.now(); });
  simulator.run();
  // 30 ms propagation + 5 ms serialization.
  EXPECT_DOUBLE_EQ(delivered_at, 35.0);
}

TEST(Network, AccountsBytesAndMessagesPerClass) {
  Simulator simulator;
  const auto topology = square_topology();
  Network network(simulator, topology);
  network.send(0, 1, 100, TrafficClass::kAccess, [] {});
  network.send(0, 1, 200, TrafficClass::kAccess, [] {});
  network.send(1, 2, 50, TrafficClass::kSummary, [] {});
  network.send(2, 0, 1000, TrafficClass::kMigration, [] {});
  simulator.run();
  const auto& stats = network.stats();
  EXPECT_EQ(stats.bytes[static_cast<std::size_t>(TrafficClass::kAccess)], 300u);
  EXPECT_EQ(stats.messages[static_cast<std::size_t>(TrafficClass::kAccess)], 2u);
  EXPECT_EQ(stats.bytes[static_cast<std::size_t>(TrafficClass::kSummary)], 50u);
  EXPECT_EQ(stats.bytes[static_cast<std::size_t>(TrafficClass::kMigration)], 1000u);
  EXPECT_EQ(stats.bytes[static_cast<std::size_t>(TrafficClass::kControl)], 0u);
  EXPECT_EQ(stats.total_bytes(), 1350u);

  network.reset_stats();
  EXPECT_EQ(network.stats().total_bytes(), 0u);
}

TEST(Network, JitterStaysWithinBounds) {
  Simulator simulator;
  const auto topology = square_topology();
  NetworkConfig config;
  config.jitter = 0.2;
  Network network(simulator, topology, config);
  for (int i = 0; i < 200; ++i) {
    network.send(0, 1, 10, TrafficClass::kAccess, [] {});
  }
  double min_gap = 1e18, max_gap = -1.0, prev = 0.0;
  (void)prev;
  // Deliveries land between 40 and 60 ms (50 +- 20%).
  std::vector<double> deliveries;
  Simulator sim2;
  Network net2(sim2, topology, config);
  for (int i = 0; i < 200; ++i) {
    net2.send(0, 1, 10, TrafficClass::kAccess, [&] { deliveries.push_back(sim2.now()); });
  }
  sim2.run();
  for (const double t : deliveries) {
    min_gap = std::min(min_gap, t);
    max_gap = std::max(max_gap, t);
  }
  EXPECT_GE(min_gap, 40.0 - 1e-9);
  EXPECT_LE(max_gap, 60.0 + 1e-9);
  EXPECT_GT(max_gap - min_gap, 1.0);  // jitter actually varies
}

TEST(Network, JitterBandScalesWithTheConfiguredFraction) {
  // The scaling factor must stay inside [1-jitter, 1+jitter] at any level,
  // not just the 0.2 pinned above: at 0.5 the 50 ms one-way spreads to
  // [25, 75] and never beyond.
  Simulator simulator;
  const auto topology = square_topology();
  NetworkConfig config;
  config.jitter = 0.5;
  Network network(simulator, topology, config);
  std::vector<double> deliveries;
  for (int i = 0; i < 500; ++i) {
    network.send(0, 1, 10, TrafficClass::kAccess,
                 [&] { deliveries.push_back(simulator.now()); });
  }
  simulator.run();
  ASSERT_EQ(deliveries.size(), 500u);
  for (const double t : deliveries) {
    EXPECT_GE(t, 25.0 - 1e-9);
    EXPECT_LE(t, 75.0 + 1e-9);
  }
}

TEST(Network, JitterIsDeterministicRunToRun) {
  // The jitter stream is seeded inside the network, not by wall clock or
  // address: two identically configured worlds deliver at identical times.
  const auto topology = square_topology();
  NetworkConfig config;
  config.jitter = 0.3;
  auto run = [&] {
    Simulator simulator;
    Network network(simulator, topology, config);
    std::vector<double> deliveries;
    for (int i = 0; i < 100; ++i) {
      network.send(0, 1, 10, TrafficClass::kSummary,
                   [&] { deliveries.push_back(simulator.now()); });
      network.send(1, 2, 10, TrafficClass::kSummary,
                   [&] { deliveries.push_back(simulator.now()); });
    }
    simulator.run();
    return deliveries;
  };
  EXPECT_EQ(run(), run());
}

TEST(Network, RejectsInvalidConfig) {
  Simulator simulator;
  const auto topology = square_topology();
  NetworkConfig config;
  config.jitter = 1.0;
  EXPECT_THROW(Network(simulator, topology, config), std::invalid_argument);
  config = {};
  config.bandwidth_bytes_per_ms = -1.0;
  EXPECT_THROW(Network(simulator, topology, config), std::invalid_argument);
}

TEST(TrafficStats, ToStringListsAllClasses) {
  TrafficStats stats;
  stats.bytes[0] = 5;
  const auto text = stats.to_string();
  EXPECT_NE(text.find("access"), std::string::npos);
  EXPECT_NE(text.find("summary"), std::string::npos);
  EXPECT_NE(text.find("control"), std::string::npos);
  EXPECT_NE(text.find("migration"), std::string::npos);
}

}  // namespace
}  // namespace geored::sim
