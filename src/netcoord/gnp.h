// GNP (Ng & Zhang, INFOCOM'02): landmark-based network embedding.
//
// A fixed set of landmark nodes is embedded first by jointly minimizing the
// relative error between their pairwise coordinate distances and measured
// RTTs (simplex-downhill, exactly as in the original paper). Every other
// node then solves a small independent minimization against the landmarks
// only. Included as the classic centralized baseline the paper's related
// work contrasts RNP with.
#pragma once

#include <cstdint>
#include <vector>

#include "netcoord/coordinate.h"
#include "topology/topology.h"

namespace geored::coord {

struct GnpConfig {
  std::size_t dimensions = 5;
  std::size_t landmark_count = 15;
  std::size_t landmark_iterations = 20000;  ///< Nelder-Mead budget, landmark phase
  std::size_t node_iterations = 2000;       ///< Nelder-Mead budget, per node
};

/// Selects `count` landmarks spread across the topology by greedy
/// farthest-point traversal of the RTT matrix (first landmark = node 0).
std::vector<topo::NodeId> select_landmarks(const topo::Topology& topology, std::size_t count);

/// Embeds every node of the topology. Coordinates of landmarks come from the
/// joint fit; all other nodes are fitted against the landmarks.
std::vector<NetworkCoordinate> run_gnp(const topo::Topology& topology,
                                       const GnpConfig& config);

}  // namespace geored::coord
