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
  return place_points(pseudo_points(input.summaries), input.candidates, input.k, input.seed);
}

std::vector<cluster::WeightedPoint> OnlineClusteringPlacement::pseudo_points(
    const std::vector<cluster::MicroCluster>& summaries) const {
  std::vector<cluster::WeightedPoint> points;
  points.reserve(summaries.size());
  for (const auto& micro : summaries) {
    if (micro.count() == 0) continue;
    const double weight = config_.weigh_by_data_volume
                              ? micro.weight()
                              : static_cast<double>(micro.count());
    if (weight <= 0.0) continue;
    points.push_back({micro.centroid(), weight});
  }
  return points;
}

OnlineClusteringDetails OnlineClusteringPlacement::place_points(
    const std::vector<cluster::WeightedPoint>& pseudo_points,
    const std::vector<CandidateInfo>& candidates, std::size_t k, std::uint64_t seed) const {
  GEORED_ENSURE(!candidates.empty(), "no candidate data centers");
  if (pseudo_points.empty()) {
    // First epoch: no usage summaries exist yet.
    return {random_placement(candidates, k, seed), {}};
  }

  cluster::KMeansConfig config = config_.kmeans;
  config.k = std::min(k, candidates.size());
  Rng rng(seed);
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
  details.placement =
      assign_centroids_to_candidates(result.centroids, mass, candidates, config.k, seed,
                                     config_.load_aware ? &mass : nullptr);
  details.macro_centroids = std::move(result.centroids);
  return details;
}

}  // namespace geored::place
