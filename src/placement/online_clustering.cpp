#include "placement/online_clustering.h"

#include "common/ensure.h"
#include "common/random.h"
#include "placement/assign.h"
#include "placement/random_placement.h"

namespace geored::place {

Placement OnlineClusteringPlacement::place(const PlacementInput& input) const {
  return place_detailed(input).placement;
}

OnlineClusteringDetails OnlineClusteringPlacement::place_detailed(
    const PlacementInput& input) const {
  GEORED_ENSURE(!input.candidates.empty(), "no candidate data centers");

  // Micro-clusters become weighted pseudo-points (Algorithm 1, line 2).
  std::vector<cluster::WeightedPoint> pseudo_points;
  pseudo_points.reserve(input.summaries.size());
  for (const auto& micro : input.summaries) {
    if (micro.count() == 0) continue;
    const double weight = config_.weigh_by_data_volume
                              ? micro.weight()
                              : static_cast<double>(micro.count());
    if (weight <= 0.0) continue;
    pseudo_points.push_back({micro.centroid(), weight});
  }
  if (pseudo_points.empty()) {
    // First epoch: no usage summaries exist yet.
    return {RandomPlacement().place(input), {}};
  }

  cluster::KMeansConfig config = config_.kmeans;
  config.k = std::min(input.k, input.candidates.size());
  Rng rng(input.seed);
  auto result = cluster::weighted_kmeans(pseudo_points, config, rng);

  // Warm start: if the previous epoch's centroids explain today's data
  // nearly as well (within the tolerance), prefer them — placements stay
  // put unless the population actually moved.
  if (config_.warm_start_centroids.size() == config.k &&
      config_.warm_start_centroids.front().dim() ==
          pseudo_points.front().position.dim()) {
    auto warm =
        cluster::weighted_kmeans_from(pseudo_points, config_.warm_start_centroids, config);
    if (warm.objective <= result.objective * (1.0 + config_.warm_start_tolerance)) {
      result = std::move(warm);
    }
  }

  std::vector<double> mass(result.centroids.size(), 0.0);
  for (std::size_t i = 0; i < pseudo_points.size(); ++i) {
    mass[result.assignment[i]] += pseudo_points[i].weight;
  }
  OnlineClusteringDetails details;
  details.placement = assign_centroids_to_candidates(result.centroids, mass,
                                                     input.candidates, config.k, input.seed,
                                                     config_.load_aware ? &mass : nullptr);
  details.macro_centroids = std::move(result.centroids);
  return details;
}

}  // namespace geored::place
