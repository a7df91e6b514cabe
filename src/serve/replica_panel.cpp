#include "serve/replica_panel.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/point_set_simd.h"

namespace geored::serve {

void ReplicaPanel::set_replicas(const std::vector<ReplicaSpec>& replicas) {
  // A per-epoch path (placement adoption), not per-request.
  std::vector<ReplicaSpec> sorted = replicas;  // lint: alloc-ok
  std::sort(sorted.begin(), sorted.end(),
            [](const ReplicaSpec& a, const ReplicaSpec& b) { return a.node < b.node; });
  std::vector<topo::NodeId> nodes;  // lint: alloc-ok
  PointSet coords;
  for (const ReplicaSpec& spec : sorted) {
    GEORED_ENSURE(nodes.empty() || nodes.back() < spec.node,
                  "duplicate replica node in set_replicas");
    nodes.push_back(spec.node);
    coords.push_back(spec.coords);
  }
  nodes_ = std::move(nodes);
  coords_ = std::move(coords);
  rebuild_up();
}

void ReplicaPanel::set_down(const std::set<topo::NodeId>& down) {
  // Free when unchanged, so callers may pass the outage set per access.
  if (down == down_) return;
  down_ = down;
  rebuild_up();
}

void ReplicaPanel::rebuild_up() {
  up_ = PointSet(coords_.dim());
  up_slots_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (down_.contains(nodes_[i])) continue;
    up_.push_back_row(coords_.row(i), coords_.dim());
    up_slots_.push_back(i);
  }
}

void ReplicaPanel::nearest_r(const double* query, std::size_t r,
                             std::vector<topo::NodeId>& out) const {
  out.clear();
  // Each pass takes the nearest row not yet taken (lowest NodeId on ties);
  // r and the replica count are a quorum size and a degree, both tiny.
  const std::size_t want = std::min(r, up_.size());
  while (out.size() < want) {
    out.push_back(up_node(nearest_up(query, nullptr, [&](std::size_t row) {
      return std::find(out.begin(), out.end(), up_node(row)) == out.end();
    })));
  }
}

void ReplicaPanel::nearest2_batch(const PointSet& points, const std::size_t* indices,
                                  std::size_t count, std::size_t* out_assign,
                                  double* out_best_sq, double* out_second_sq) const {
  GEORED_ENSURE(!up_.empty() && points.dim() == up_.dim(),
                "nearest2_batch needs an up replica and matching query dimension");
  if (count == 0) return;
  simd::nearest2_batch(points.row(0), points.dim(), indices, count, up_.row(0), up_.size(),
                       out_assign, out_best_sq, out_second_sq, simd::active_level());
}

}  // namespace geored::serve
