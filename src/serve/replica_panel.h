// ReplicaPanel: the one answer to "which replica is closest" (the paper's
// objective assumes every client reads its closest replica). The router,
// ReplicationManager::route/serve and its delay estimate, the quorum store
// and the simulated ReplicationSystem all ask a panel.
//
// Up replicas are kept as coordinate rows in ascending NodeId order and
// every scan takes the strict-`<` first winner on squared distance, so an
// exact tie goes to the lowest NodeId everywhere. The batched scan is
// simd::nearest2_batch, bit-identical to the single-query scan at every
// SIMD level. Queries are const and share no scratch.
#pragma once

#include <cstddef>
#include <limits>
#include <set>
#include <vector>

#include "common/point.h"
#include "common/point_set.h"
#include "topology/topology.h"

namespace geored::serve {

/// One replica a panel may route to: a data center and its network
/// coordinates (the summary-space position replica selection runs in).
struct ReplicaSpec {
  topo::NodeId node = 0;
  Point coords;
};

class ReplicaPanel {
 public:
  /// Row index meaning "no up replica qualifies".
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  /// The default row filter: every up row qualifies.
  struct AnyRow {
    bool operator()(std::size_t) const { return true; }
  };

  /// Replaces the replica set (any spec order; nodes distinct, one
  /// dimension — else throws, panel unchanged) and keeps the down set.
  void set_replicas(const std::vector<ReplicaSpec>& replicas);

  /// Marks `down` down until a later call clears them. Cheap when unchanged.
  void set_down(const std::set<topo::NodeId>& down);

  const std::vector<topo::NodeId>& nodes() const { return nodes_; }  ///< ascending
  std::size_t size() const { return nodes_.size(); }
  std::size_t up_count() const { return up_.size(); }
  std::size_t dim() const { return up_.dim(); }
  /// Index into nodes() of up row `row`.
  std::size_t up_slot(std::size_t row) const { return up_slots_[row]; }
  topo::NodeId up_node(std::size_t row) const { return nodes_[up_slots_[row]]; }

  /// The up row minimizing `cost(row)` among the rows `keep(row)` accepts,
  /// or kNone; the first kept row when no cost beats infinity (like
  /// PointSet::nearest_of). `best_cost`, if set, receives the minimum.
  template <typename Cost, typename Keep = AnyRow>
  std::size_t argmin_up(Cost cost, double* best_cost = nullptr, Keep keep = {}) const {
    std::size_t best = kNone;
    double best_value = std::numeric_limits<double>::infinity();
    for (std::size_t row = 0; row < up_.size(); ++row) {
      if (!keep(row)) continue;
      const double value = cost(row);
      const bool better = value < best_value;
      best = better || best == kNone ? row : best;
      best_value = better ? value : best_value;
    }
    if (best_cost != nullptr) *best_cost = best_value;
    return best;
  }

  /// argmin_up over squared coordinate distance to `query` (dim() values).
  template <typename Keep = AnyRow>
  std::size_t nearest_up(const double* query, double* best_dist_sq = nullptr,
                         Keep keep = {}) const {
    return argmin_up([&](std::size_t row) { return up_.distance_squared(row, query); },
                     best_dist_sq, keep);
  }

  /// The min(r, up_count()) nearest up replicas in (distance, NodeId)
  /// order, written to `out` (cleared first).
  void nearest_r(const double* query, std::size_t r, std::vector<topo::NodeId>& out) const;

  /// Batched nearest-two scan: query j is row indices[j] of `points` (row j
  /// when indices is null); bit-identical to a nearest_up loop.
  void nearest2_batch(const PointSet& points, const std::size_t* indices, std::size_t count,
                      std::size_t* out_assign, double* out_best_sq,
                      double* out_second_sq) const;

 private:
  void rebuild_up();

  std::vector<topo::NodeId> nodes_;    ///< ascending
  PointSet coords_;                    ///< row i = nodes_[i] coordinates
  std::set<topo::NodeId> down_;        ///< the last set_down
  PointSet up_;                        ///< up-replica coordinates, ascending NodeId
  std::vector<std::size_t> up_slots_;  ///< up row -> nodes_ index
};

}  // namespace geored::serve
