// ReplicationSystem: the paper's whole system wired onto the discrete-event
// simulator — clients issuing reads against the current replica set, replica
// servers summarizing their user populations, and a coordinator that runs
// placement epochs and migrates replicas, all over a Network that charges
// realistic delays and accounts every byte.
//
// This is the "realistic" execution path (integration tests, examples,
// ablations). The figure benches use core/evaluation.h, which reproduces the
// paper's measurement protocol without per-access event overhead.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/stats.h"
#include "core/replication_manager.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace geored::core {

/// How clients pick the replica to read from.
enum class ReplicaSelection {
  kTrueClosest,     ///< oracle: lowest true RTT (the paper's formal model)
  kByCoordinates,   ///< lowest predicted RTT from network coordinates
};

struct SystemConfig {
  ManagerConfig manager;
  double epoch_ms = 60'000.0;          ///< placement period
  std::size_t request_bytes = 256;     ///< client -> replica
  std::size_t response_bytes = 65'536; ///< replica -> client (object read)
  std::size_t control_bytes = 128;     ///< coordinator control messages
  std::size_t object_bytes = 1u << 30; ///< replica migration transfer size
  ReplicaSelection selection = ReplicaSelection::kByCoordinates;
};

struct EpochMetrics {
  std::size_t epoch = 0;
  double mean_delay_ms = 0.0;     ///< mean access delay during the epoch
  std::uint64_t accesses = 0;
  bool migrated = false;
  place::Placement placement;     ///< placement in force after the epoch
};

class ReplicationSystem {
 public:
  /// `clients[i]` is served with coordinates `client_coords[i]` and drives
  /// accesses from `workload` client index i. `coordinator` is the node that
  /// hosts the central placement service (Algorithm 1's "central server").
  ReplicationSystem(sim::Simulator& simulator, sim::Network& network,
                    std::vector<place::CandidateInfo> candidates,
                    std::vector<topo::NodeId> clients, std::vector<Point> client_coords,
                    const wl::Workload& workload, topo::NodeId coordinator,
                    SystemConfig config, std::uint64_t seed);

  /// Schedules all client arrivals and epoch ticks in [0, duration_ms) and
  /// runs the simulator to that horizon. May be called once.
  void run(double duration_ms);

  /// Marks the replica-holding capability of `node` as failed during
  /// [start_ms, end_ms): clients fail over to the next-closest live replica.
  /// Call before run().
  void schedule_failure(topo::NodeId node, double start_ms, double end_ms);

  const OnlineStats& overall_delay() const { return overall_delay_; }
  const std::vector<EpochMetrics>& epoch_history() const { return epochs_; }
  const std::vector<EpochReport>& epoch_reports() const { return reports_; }
  const ReplicationManager& manager() const { return manager_; }

  /// Accesses that found no live replica (only possible with failures).
  std::uint64_t failed_accesses() const { return failed_accesses_; }

 private:
  void schedule_client(std::size_t client_index, double duration_ms);
  void on_access(std::size_t client_index, double started_at);
  void run_epoch_at_coordinator();
  bool is_up(topo::NodeId node) const { return !failed_.contains(node); }
  void set_active_placement(place::Placement placement);

  sim::Simulator& simulator_;
  sim::Network& network_;
  std::vector<place::CandidateInfo> candidates_;
  std::vector<topo::NodeId> clients_;
  std::vector<Point> client_coords_;
  const wl::Workload& workload_;
  topo::NodeId coordinator_;
  SystemConfig config_;
  Rng rng_;

  ReplicationManager manager_;
  place::Placement active_placement_;  ///< what clients route against
  /// Routing panel over active_placement_ with failed_ marked down.
  serve::ReplicaPanel routing_;
  std::set<topo::NodeId> failed_;
  OnlineStats overall_delay_;
  OnlineStats epoch_delay_;
  std::uint64_t epoch_accesses_ = 0;
  std::uint64_t failed_accesses_ = 0;
  std::size_t epoch_counter_ = 0;
  std::vector<EpochMetrics> epochs_;
  std::vector<EpochReport> reports_;
  bool started_ = false;
};

}  // namespace geored::core
