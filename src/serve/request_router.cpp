#include "serve/request_router.h"

#include <algorithm>

#include "common/ensure.h"

namespace geored::serve {

RequestRouter::RequestRouter(ServeConfig config) : config_(config) {
  GEORED_ENSURE(config_.service_ms > 0.0, "service_ms must be positive");
  GEORED_ENSURE(config_.queue_cap >= 1, "queue_cap must be at least 1");
}

void RequestRouter::set_replicas(const std::vector<ReplicaSpec>& replicas) {
  // Retained replicas keep their queues: requests in flight at an epoch
  // boundary are still in flight. A per-epoch path, not per-request.
  const std::vector<topo::NodeId> old_nodes = panel_.nodes();  // lint: alloc-ok
  panel_.set_replicas(replicas);
  std::vector<Queue> queues(panel_.size());  // lint: alloc-ok
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const auto old = std::lower_bound(old_nodes.begin(), old_nodes.end(), panel_.nodes()[i]);
    if (old != old_nodes.end() && *old == panel_.nodes()[i]) {
      queues[i] = std::move(queues_[static_cast<std::size_t>(old - old_nodes.begin())]);
    } else {
      queues[i].ring.assign(config_.queue_cap, 0.0);
    }
  }
  queues_ = std::move(queues);
}

void RequestRouter::set_down(const std::set<topo::NodeId>& down) { panel_.set_down(down); }

std::size_t RequestRouter::prune(Queue& queue, double now_ms) const {
  const std::size_t cap = config_.queue_cap;
  while (queue.count > 0 && queue.ring[queue.head] <= now_ms) {
    queue.head = (queue.head + 1) % cap;
    --queue.count;
  }
  return queue.count;
}

double RequestRouter::enqueue(Queue& queue, double now_ms) {
  const double wait_ms = std::max(0.0, queue.last_depart_ms - now_ms);
  const double depart_ms = now_ms + wait_ms + config_.service_ms;
  queue.ring[(queue.head + queue.count) % config_.queue_cap] = depart_ms;
  ++queue.count;
  queue.last_depart_ms = depart_ms;
  return wait_ms;
}

void RequestRouter::admit(std::size_t primary_row, double primary_dist_sq,
                          const double* query, double now_ms, RouteDecision& out) {
  Queue& primary = queues_[panel_.up_slot(primary_row)];
  if (prune(primary, now_ms) < config_.queue_cap) {
    out.outcome = RouteDecision::Outcome::kAdmitted;
    out.replica = panel_.up_node(primary_row);
    out.wait_ms = enqueue(primary, now_ms);
    out.dist_sq = primary_dist_sq;
    ++stats_.admitted;
    return;
  }
  if (config_.policy == ServeConfig::Policy::kSpill && panel_.up_count() >= 2) {
    // Second-nearest up replica: a lazy re-scan excluding the primary row.
    // The batched kernel reports the runner-up *distance* but not its
    // index; recovering it here only on the (rare) full-queue path keeps
    // the common case on the pure argmin kernels.
    double spill_dist = 0.0;
    const std::size_t spill_row = panel_.nearest_up(
        query, &spill_dist, [primary_row](std::size_t row) { return row != primary_row; });
    Queue& spill = queues_[panel_.up_slot(spill_row)];
    if (prune(spill, now_ms) < config_.queue_cap) {
      out.outcome = RouteDecision::Outcome::kSpilled;
      out.replica = panel_.up_node(spill_row);
      out.wait_ms = enqueue(spill, now_ms);
      out.dist_sq = spill_dist;
      ++stats_.admitted;
      ++stats_.spilled;
      return;
    }
  }
  out.outcome = RouteDecision::Outcome::kRejected;
  ++stats_.rejected;
}

RouteDecision RequestRouter::route(const double* query, double now_ms) {
  ++stats_.requests;
  RouteDecision decision;
  double best_sq = 0.0;
  const std::size_t row = panel_.nearest_up(query, &best_sq);
  if (row == ReplicaPanel::kNone) {
    ++stats_.lost;
    return decision;
  }
  admit(row, best_sq, query, now_ms, decision);
  return decision;
}

void RequestRouter::route_batch(const PointSet& points, const std::size_t* indices,
                                std::size_t count, const double* nows_ms,
                                RouteDecision* out) {
  if (count == 0) return;
  if (panel_.up_count() == 0) {
    for (std::size_t j = 0; j < count; ++j) {
      ++stats_.requests;
      ++stats_.lost;
      out[j] = RouteDecision{};
    }
    return;
  }
  GEORED_ENSURE(points.dim() == panel_.dim(), "query dimension mismatch in route_batch");
  assign_.resize(count);
  best_sq_.resize(count);
  second_sq_.resize(count);
  // One batched nearest-two scan for the whole chunk, then the sequential
  // admission pass in arrival order — queue decisions depend on earlier
  // admissions, so that part is inherently ordered.
  panel_.nearest2_batch(points, indices, count, assign_.data(), best_sq_.data(),
                        second_sq_.data());
  for (std::size_t j = 0; j < count; ++j) {
    const double* query = points.row(indices != nullptr ? indices[j] : j);
    ++stats_.requests;
    out[j] = RouteDecision{};
    admit(assign_[j], best_sq_[j], query, nows_ms[j], out[j]);
  }
}

double RequestRouter::complete(const RouteDecision& decision, double rtt_ms) {
  GEORED_ENSURE(decision.admitted(), "complete() on a request that was not admitted");
  const double latency_ms = rtt_ms + decision.wait_ms + config_.service_ms;
  histogram_.record(latency_ms);
  return latency_ms;
}

// Observational: an unknown node reads as an empty queue by design.
std::size_t RequestRouter::resident_at(topo::NodeId node,  // lint: no-ensure
                                       double now_ms) const {
  const std::vector<topo::NodeId>& nodes = panel_.nodes();
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
  if (it == nodes.end() || *it != node) return 0;
  const Queue& queue = queues_[static_cast<std::size_t>(it - nodes.begin())];
  std::size_t resident = 0;
  for (std::size_t i = 0; i < queue.count; ++i) {
    if (queue.ring[(queue.head + i) % config_.queue_cap] > now_ms) ++resident;
  }
  return resident;
}

void RequestRouter::reset_epoch() {
  histogram_.reset();
  stats_ = Stats{};
}

}  // namespace geored::serve
