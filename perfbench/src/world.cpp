#include "world.h"

#include <limits>

#include "helpers.h"
#include "netcoord/embedding.h"
#include "topology/planetlab_model.h"

namespace perfbench {

using namespace geored;

World build_world(const WorldSpec& spec, WorldTimings& timings) {
  World world;
  double start = now_ms();
  topo::PlanetLabModelConfig topo_config;
  topo_config.node_count = spec.nodes;
  world.topology = topo::generate_planetlab_like(topo_config, spec.topology_seed);
  timings.topology_ms = now_ms() - start;

  start = now_ms();
  coord::GossipConfig gossip;
  gossip.rounds = spec.rnp_rounds;
  world.coords = coord::run_rnp(world.topology, coord::RnpConfig{}, gossip, spec.coords_seed);
  timings.embed_ms = now_ms() - start;

  world.dcs = spec.dcs;
  world.demand_seed = spec.demand_seed;
  for (std::size_t i = 0; i < spec.dcs; ++i) {
    world.candidates.push_back({static_cast<topo::NodeId>(i), world.coords[i].position,
                                std::numeric_limits<double>::infinity()});
  }
  world.client_points = PointSet(world.coords.front().position.dim());
  world.client_points.reserve(spec.nodes - spec.dcs);
  for (std::size_t node = spec.dcs; node < spec.nodes; ++node) {
    world.client_points.push_back(world.coords[node].position);
  }
  return world;
}

}  // namespace perfbench
