#include "core/system.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "cluster/summarizer.h"
#include "common/ensure.h"

namespace geored::core {

ReplicationSystem::ReplicationSystem(sim::Simulator& simulator, sim::Network& network,
                                     std::vector<place::CandidateInfo> candidates,
                                     std::vector<topo::NodeId> clients,
                                     std::vector<Point> client_coords,
                                     const wl::Workload& workload, topo::NodeId coordinator,
                                     SystemConfig config, std::uint64_t seed)
    : simulator_(simulator),
      network_(network),
      candidates_(std::move(candidates)),
      clients_(std::move(clients)),
      client_coords_(std::move(client_coords)),
      workload_(workload),
      coordinator_(coordinator),
      config_(config),
      rng_(seed),
      manager_(candidates_, config.manager, seed) {
  GEORED_ENSURE(clients_.size() == client_coords_.size(),
                "one coordinate per client required");
  GEORED_ENSURE(clients_.size() == workload_.client_count(),
                "workload must cover exactly the client population");
  GEORED_ENSURE(config_.epoch_ms > 0.0, "epoch period must be positive");
  for (const auto& coords : client_coords_) {
    GEORED_ENSURE(coords.dim() == candidates_.front().coords.dim(),
                  "client coordinates must match the data centers' dimension");
  }
  set_active_placement(manager_.placement());
}

void ReplicationSystem::set_active_placement(place::Placement placement) {
  routing_ = replica_panel(candidates_, placement);
  routing_.set_down(failed_);
  active_placement_ = std::move(placement);
}

void ReplicationSystem::schedule_failure(topo::NodeId node, double start_ms, double end_ms) {
  GEORED_ENSURE(!started_, "failures must be scheduled before run()");
  GEORED_ENSURE(end_ms >= start_ms, "failure interval must be ordered");
  simulator_.schedule_at(start_ms, [this, node] {
    failed_.insert(node);
    routing_.set_down(failed_);
  });
  simulator_.schedule_at(end_ms, [this, node] {
    failed_.erase(node);
    routing_.set_down(failed_);
  });
}

void ReplicationSystem::run(double duration_ms) {
  GEORED_ENSURE(!started_, "run() may be called once");
  started_ = true;
  for (std::size_t i = 0; i < clients_.size(); ++i) schedule_client(i, duration_ms);
  for (double t = config_.epoch_ms; t <= duration_ms; t += config_.epoch_ms) {
    simulator_.schedule_at(t, [this] { run_epoch_at_coordinator(); });
  }
  simulator_.run_until(duration_ms);
}

void ReplicationSystem::schedule_client(std::size_t client_index, double duration_ms) {
  Rng client_rng = rng_.fork(client_index);
  const auto arrivals =
      workload_.sample_arrival_times(client_index, 0.0, duration_ms, client_rng);
  for (const double t : arrivals) {
    simulator_.schedule_at(t, [this, client_index, t] { on_access(client_index, t); });
  }
}

void ReplicationSystem::on_access(std::size_t client_index, double started_at) {
  const topo::NodeId client = clients_[client_index];
  const Point& coords = client_coords_[client_index];

  // Pick the live replica with the lowest true RTT (oracle) or lowest
  // predicted RTT; ties go to the lowest NodeId either way.
  if (routing_.up_count() == 0) {
    ++failed_accesses_;
    return;
  }
  const std::size_t row =
      config_.selection == ReplicaSelection::kTrueClosest
          ? routing_.argmin_up(
                [&](std::size_t r) { return network_.rtt_ms(client, routing_.up_node(r)); })
          : routing_.nearest_up(coords.values().data());
  const topo::NodeId replica = routing_.up_node(row);

  const double data_weight = workload_.data_per_access(client_index);
  network_.send(client, replica, config_.request_bytes, sim::TrafficClass::kAccess,
                [this, client, replica, coords, data_weight, started_at] {
                  // The replica summarizes the access if it still holds the
                  // object (a migration may have raced the request).
                  const auto& placement = manager_.placement();
                  if (std::find(placement.begin(), placement.end(), replica) !=
                      placement.end()) {
                    manager_.record_access(replica, coords, data_weight);
                  }
                  network_.send(replica, client, config_.response_bytes,
                                sim::TrafficClass::kAccess, [this, started_at] {
                                  const double delay = simulator_.now() - started_at;
                                  overall_delay_.add(delay);
                                  epoch_delay_.add(delay);
                                  ++epoch_accesses_;
                                });
                }

  );
}

void ReplicationSystem::run_epoch_at_coordinator() {
  // Collect summaries: one control request and one summary response per live
  // replica, charged to the network. This round is the epoch's only
  // collection; the placement computation (the manager's direct pipeline)
  // runs when the last summary arrives.
  std::vector<topo::NodeId> live;
  for (const auto node : manager_.placement()) {
    if (is_up(node)) live.push_back(node);
  }
  auto pending = std::make_shared<std::size_t>(live.size());

  auto finalize = [this] {
    // Failed data centers cannot host replicas this epoch; if a current
    // replica is down, the manager re-places unconditionally.
    const EpochReport report = manager_.run_epoch(failed_);
    reports_.push_back(report);

    EpochMetrics metrics;
    metrics.epoch = epoch_counter_++;
    metrics.mean_delay_ms = epoch_delay_.mean();
    metrics.accesses = epoch_accesses_;
    metrics.migrated = report.decision.migrate;
    metrics.placement = report.adopted_placement;
    epochs_.push_back(std::move(metrics));
    epoch_delay_ = OnlineStats();
    epoch_accesses_ = 0;

    if (report.adopted_placement == active_placement_) return;

    // Migrate: stream the object from the nearest old replica to each new
    // site, switch client routing when the slowest transfer lands.
    auto transfers = std::make_shared<std::size_t>(0);
    const place::Placement next = report.adopted_placement;
    for (const auto node : next) {
      if (std::find(active_placement_.begin(), active_placement_.end(), node) !=
          active_placement_.end()) {
        continue;
      }
      // Stream from the nearest old replica, preferring live sources.
      topo::NodeId source = active_placement_.front();
      double source_rtt = std::numeric_limits<double>::infinity();
      bool source_live = false;
      for (const auto old_node : active_placement_) {
        const bool old_live = is_up(old_node);
        const double rtt = network_.rtt_ms(old_node, node);
        if ((old_live && !source_live) ||
            (old_live == source_live && rtt < source_rtt)) {
          source = old_node;
          source_rtt = rtt;
          source_live = old_live;
        }
      }
      ++*transfers;
      network_.send(source, node, config_.object_bytes, sim::TrafficClass::kMigration,
                    [this, transfers, next] {
                      if (--*transfers == 0) set_active_placement(next);
                    });
    }
    if (*transfers == 0) set_active_placement(next);  // pure shrink, no copies
  };

  if (live.empty()) {
    finalize();
    return;
  }
  for (const auto node : live) {
    network_.send(coordinator_, node, config_.control_bytes, sim::TrafficClass::kControl,
                  [this, node, pending, finalize] {
                    // Reply with the serialized summary.
                    network_.send(node, coordinator_,
                                  cluster::serialized_size(manager_.summary_of(node)),
                                  sim::TrafficClass::kSummary, [pending, finalize] {
                                    if (--*pending == 0) finalize();
                                  });
                  });
  }
}

}  // namespace geored::core
