// kv_service: a geo-replicated key-value service that places itself.
//
// 1000 objects hashed into 16 groups ("virtual objects", paper §II-A), each
// group independently placed by the paper's online clustering. Two client
// populations with different tastes: European clients mostly read European
// content, American clients mostly American. Watch the per-group
// placements specialize after the first placement epoch and the read
// latency drop — while writes keep quorum durability (n=3, r=1, w=2).
//
// Build & run:  ./build/examples/kv_service
#include <cstdio>

#include "common/random.h"
#include "netcoord/embedding.h"
#include "store/kvstore.h"
#include "topology/planetlab_model.h"

using namespace geored;

int main() {
  topo::PlanetLabModelConfig topo_config;
  topo_config.node_count = 120;
  const auto topology = topo::generate_planetlab_like(topo_config, 7);
  const auto coords =
      coord::run_rnp(topology, coord::RnpConfig{}, coord::GossipConfig{}, 7);

  constexpr std::size_t kDcs = 15;
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < kDcs; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i), coords[i].position,
                          std::numeric_limits<double>::infinity()});
  }
  // Split clients into "west" (the Americas) and "east" (everything else).
  std::vector<topo::NodeId> west, east;
  for (topo::NodeId i = kDcs; i < topology.size(); ++i) {
    const auto& name = topology.region_names()[topology.node(i).region];
    (name.starts_with("na-") || name == "south-america" ? west : east).push_back(i);
  }
  std::printf("%zu west clients, %zu east clients, %zu data centers\n", west.size(),
              east.size(), kDcs);

  sim::Simulator simulator;
  sim::Network network(simulator, topology);
  store::StoreConfig config;
  config.quorum = {3, 1, 2};
  config.groups = 16;
  config.manager.summarizer.max_clusters = 4;
  config.manager.migration.min_relative_gain = 0.05;
  store::ReplicatedKvStore kv(simulator, network, candidates, config, 1);

  // Objects 0..499 are "western" content, 500..999 "eastern".
  constexpr std::size_t kObjects = 1000;
  Rng rng(99);
  const auto pick_object = [&](bool is_west) {
    const bool local = rng.bernoulli(0.8);
    const bool from_west = local == is_west;
    return static_cast<store::ObjectId>((from_west ? 0 : 500) + rng.below(500));
  };
  const auto pick_client = [&](bool* is_west) {
    *is_west = rng.bernoulli(0.5);
    const auto& pool = *is_west ? west : east;
    return pool[rng.below(pool.size())];
  };

  // Seed every object once so reads have something to find.
  for (store::ObjectId id = 0; id < kObjects; ++id) {
    const auto writer = id < 500 ? west[id % west.size()] : east[id % east.size()];
    kv.put(writer, coords[writer].position, id, std::string(256, 'x'),
           [](const store::PutResult&) {});
  }
  simulator.run();

  std::printf("\n%-7s %12s %12s %12s %10s %12s\n", "epoch", "reads", "get p~mean",
              "put p~mean", "stale", "migrations");
  for (int epoch = 0; epoch < 4; ++epoch) {
    const std::uint64_t reads_before = kv.reads();
    const double get_before = kv.get_latency().sum();
    const double put_before = kv.put_latency().sum();
    const std::uint64_t writes_before = kv.writes();
    const std::uint64_t stale_before = kv.stale_reads();

    for (int op = 0; op < 12000; ++op) {
      bool is_west = false;
      const auto client = pick_client(&is_west);
      const auto id = pick_object(is_west);
      if (rng.bernoulli(0.95)) {
        kv.get(client, coords[client].position, id, [](const store::GetResult&) {});
      } else {
        kv.put(client, coords[client].position, id, std::string(256, 'y'),
               [](const store::PutResult&) {});
      }
    }
    simulator.run();

    const std::uint64_t reads = kv.reads() - reads_before;
    const std::uint64_t writes = kv.writes() - writes_before;
    const double get_mean = (kv.get_latency().sum() - get_before) / static_cast<double>(reads);
    const double put_mean =
        (kv.put_latency().sum() - put_before) / static_cast<double>(writes);
    const std::uint64_t stale = kv.stale_reads() - stale_before;

    const auto reports = kv.run_placement_epochs();
    simulator.run();  // let group migrations land
    std::size_t migrations = 0;
    for (const auto& report : reports) migrations += report.decision.migrate ? 1 : 0;

    std::printf("%-7d %12llu %10.1fms %10.1fms %10llu %12zu\n", epoch,
                static_cast<unsigned long long>(reads), get_mean, put_mean,
                static_cast<unsigned long long>(stale), migrations);
  }

  std::printf("\nfinal per-group placements (dc ids):\n");
  for (std::uint32_t g = 0; g < config.groups; ++g) {
    std::printf("  group %2u:", g);
    for (const auto node : kv.placement_of_group(g)) std::printf(" dc%-2u", node);
    std::printf("\n");
  }
  std::printf("\ntraffic: %s\n", network.stats().to_string().c_str());
  return 0;
}
