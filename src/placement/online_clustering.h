// The paper's contribution (Algorithm 1): macro-clustering of per-replica
// micro-cluster summaries.
//
// Input: the k*m micro-clusters shipped by the current replica servers.
// Each micro-cluster is treated as a pseudo-point at its centroid, weighted
// by its access count (optionally by data volume); weighted k-means merges
// them into k macro-clusters, and each macro centroid is mapped to the
// nearest distinct candidate data center. Bandwidth and compute are
// independent of the number of clients (Table II).
#pragma once

#include "cluster/kmeans.h"
#include "placement/strategy.h"

namespace geored::place {

struct OnlineClusteringConfig {
  cluster::KMeansConfig kmeans;
  /// Weigh pseudo-points by data volume instead of access count. The paper
  /// maintains both; access count is its default objective (delay per
  /// access), data volume suits transfer-time objectives.
  bool weigh_by_data_volume = false;
  /// Respect candidate capacities when mapping macro-clusters to data
  /// centers (load-aware extension; off reproduces the paper).
  bool load_aware = false;

  /// Warm-start centroids, typically the previous epoch's macro-cluster
  /// centroids (empty = cold start, the paper's behavior). When provided,
  /// Lloyd also runs from them and wins whenever its objective is within
  /// `warm_start_tolerance` of the cold k-means++ result — stable
  /// populations then produce *stable* placements instead of churning with
  /// the seeding randomness, while real population shifts still win.
  std::vector<Point> warm_start_centroids;
  double warm_start_tolerance = 0.02;
};

/// place() plus the macro-cluster centroids behind the decision (callers
/// feed them back as the next epoch's warm start).
struct OnlineClusteringDetails {
  Placement placement;
  std::vector<Point> macro_centroids;
};

class OnlineClusteringPlacement final : public PlacementStrategy {
 public:
  explicit OnlineClusteringPlacement(OnlineClusteringConfig config = {}) : config_(config) {}

  std::string name() const override { return "online clustering"; }
  Placement place(const PlacementInput& input) const override;

  /// As place(), also returning the winning macro-cluster centroids:
  /// place_points(pseudo_points(input.summaries), input.candidates,
  /// input.k, input.seed).
  OnlineClusteringDetails place_detailed(const PlacementInput& input) const;

  /// The summaries as weighted pseudo-points (Algorithm 1, line 2), in
  /// summary order; clusters with no accesses (or no weight, under
  /// weigh_by_data_volume) are dropped.
  std::vector<cluster::WeightedPoint> pseudo_points(
      const std::vector<cluster::MicroCluster>& summaries) const;

  /// Macro-clusters `pseudo_points` into min(k, #candidates) sites. No
  /// pseudo-points (no accesses summarized yet) falls back to a seeded
  /// random choice with no centroids. Callers placing one summary set at
  /// several degrees build the pseudo-points once and call this per k.
  OnlineClusteringDetails place_points(
      const std::vector<cluster::WeightedPoint>& pseudo_points,
      const std::vector<CandidateInfo>& candidates, std::size_t k, std::uint64_t seed) const;

 private:
  OnlineClusteringConfig config_;
};

}  // namespace geored::place
