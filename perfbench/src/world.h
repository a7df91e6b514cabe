// The benchmark's world: a PlanetLab-like topology whose first `dcs` nodes
// are the candidate data centers and whose other nodes are clients, with
// RNP network coordinates, and each client's base demand. It is built from
// fixed seeds, so every workload seed runs against the same map and the
// same client population; the workload seed drives the request streams.
#pragma once

#include <cstdint>
#include <vector>

#include "common/point_set.h"
#include "netcoord/coordinate.h"
#include "placement/types.h"
#include "topology/topology.h"

namespace perfbench {

struct WorldSpec {
  std::size_t nodes = 500;
  std::size_t dcs = 40;
  std::size_t rnp_rounds = 256;
  std::uint64_t topology_seed = 20110620;
  std::uint64_t coords_seed = 7;
  /// Seeds the per-client base rates (lognormal spread around the mean).
  std::uint64_t demand_seed = 3;
};

struct World {
  geored::topo::Topology topology;
  std::vector<geored::coord::NetworkCoordinate> coords;
  std::vector<geored::place::CandidateInfo> candidates;
  /// Row c = coordinates of client c (node dcs + c).
  geored::PointSet client_points;
  std::size_t dcs = 0;
  std::uint64_t demand_seed = 0;

  std::size_t client_count() const { return client_points.size(); }
  geored::topo::NodeId client_node(std::size_t client) const {
    return static_cast<geored::topo::NodeId>(dcs + client);
  }
};

/// Wall time of the two world-building layers, ms.
struct WorldTimings {
  double topology_ms = 0.0;
  double embed_ms = 0.0;
};

World build_world(const WorldSpec& spec, WorldTimings& timings);

}  // namespace perfbench
