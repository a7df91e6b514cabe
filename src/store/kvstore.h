// ReplicatedKvStore: a Dynamo-style geo-replicated key-value store built on
// the paper's placement machinery — the kind of system ([4],[5],[6] in the
// paper) the replica placement technique is meant to serve, and the
// "quorum-based approaches" its future-work section points at.
//
//   * Objects are hashed into groups; each group is the paper's "virtual
//     object" (§II-A) with its own ReplicationManager: per-replica
//     micro-cluster summaries, macro-clustering epochs, migration gating.
//   * Writes go to all n replicas of the group and complete after w acks;
//     reads query the r closest replicas and return the newest version
//     (last-writer-wins with Lamport versions). r + w > n gives quorum
//     intersection; r + w <= n trades freshness for latency, and the store
//     counts the stale reads that result.
//   * Group migrations triggered by placement epochs copy the group's data
//     to the new replicas over the simulated network, charged as migration
//     traffic; reads racing a migration observe realistic transient
//     staleness.
//
// Everything runs on the discrete-event simulator; the store is
// single-threaded by construction like every geored component.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/stats.h"
#include "core/fleet_manager.h"
#include "serve/latency_histogram.h"
#include "core/replication_manager.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/storage_node.h"
#include "store/version.h"

namespace geored::store {

struct QuorumConfig {
  std::size_t n = 3;  ///< replicas per group (the placement degree k)
  std::size_t r = 1;  ///< replicas a read must hear from
  std::size_t w = 2;  ///< replicas a write must hear from
};

struct StoreConfig {
  QuorumConfig quorum;
  std::size_t groups = 16;            ///< object groups ("virtual objects")
  core::ManagerConfig manager;        ///< per-group placement parameters
                                      ///< (replication_degree is overridden by quorum.n)
  std::size_t request_overhead_bytes = 64;  ///< headers on every message

  /// Read repair (Dynamo's anti-entropy on the read path): when a quorum
  /// read observes replicas with divergent versions, the newest value is
  /// asynchronously written back to the stale replicas contacted. Converges
  /// weakly-consistent configurations without waiting for the next write.
  bool read_repair = false;
};

struct GetResult {
  VersionedValue value;
  double latency_ms = 0.0;
  /// True when a strictly newer version had already been committed when
  /// this read started (measured against the oracle commit log).
  bool stale = false;
};

struct PutResult {
  Version version;
  double latency_ms = 0.0;
};

class ReplicatedKvStore {
 public:
  ReplicatedKvStore(sim::Simulator& simulator, sim::Network& network,
                    std::vector<place::CandidateInfo> candidates, StoreConfig config,
                    std::uint64_t seed);

  /// Which group an object belongs to (stable hash).
  std::uint32_t group_of(ObjectId id) const;

  const place::Placement& placement_of_group(std::uint32_t group) const;
  const core::ReplicationManager& manager_of_group(std::uint32_t group) const;

  /// Asynchronous write: completes (calls `done`) after w replica acks.
  void put(topo::NodeId client, const Point& client_coords, ObjectId id, std::string data,
           std::function<void(const PutResult&)> done);

  /// Asynchronous read: completes after r replica replies with the newest
  /// version observed among them.
  void get(topo::NodeId client, const Point& client_coords, ObjectId id,
           std::function<void(const GetResult&)> done);

  /// Runs one placement epoch for every group (via the FleetManager, one
  /// parallel task per group) and performs the resulting data migrations
  /// over the network in group order. Returns one report per group.
  std::vector<core::EpochReport> run_placement_epochs();

  // --- Observability ----------------------------------------------------
  const OnlineStats& get_latency() const { return get_latency_; }
  const OnlineStats& put_latency() const { return put_latency_; }
  /// Full latency distributions for tail accounting: OnlineStats carries
  /// mean/variance, the histograms carry p50/p99/p999 (byte-stable quantile
  /// buckets, mergeable across stores — see serve/latency_histogram.h).
  const serve::LatencyHistogram& get_latency_histogram() const {
    return get_latency_histogram_;
  }
  const serve::LatencyHistogram& put_latency_histogram() const {
    return put_latency_histogram_;
  }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t stale_reads() const { return stale_reads_; }
  std::uint64_t not_found_reads() const { return not_found_reads_; }
  std::uint64_t read_repairs() const { return read_repairs_; }
  /// Storage replica state of one data center (tests / tooling).
  const StorageNode& storage_at(topo::NodeId node) const;

 private:
  LamportClock& clock_of(topo::NodeId client);
  /// Delivers a write to `replica`, then forwards it from there to every
  /// current member of the group that `reached` (the nodes the write was
  /// already sent to) lacks — the members a placement change added after
  /// the client addressed the old placement.
  void deliver_write(std::uint32_t group, topo::NodeId replica, ObjectId id,
                     const VersionedValue& value,
                     const std::shared_ptr<std::vector<topo::NodeId>>& reached);
  void migrate_group(std::uint32_t group, const place::Placement& old_placement,
                     const place::Placement& new_placement);

  sim::Simulator& simulator_;
  sim::Network& network_;
  StoreConfig config_;

  /// Per-group placement pipelines; the store's groups are the fleet's.
  std::unique_ptr<core::FleetManager> fleet_;
  std::map<topo::NodeId, StorageNode> storage_;
  std::map<topo::NodeId, LamportClock> clocks_;

  /// Oracle commit log for staleness accounting: newest version whose put
  /// has completed, per object.
  std::unordered_map<ObjectId, Version> committed_;

  OnlineStats get_latency_;
  OnlineStats put_latency_;
  serve::LatencyHistogram get_latency_histogram_;
  serve::LatencyHistogram put_latency_histogram_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::uint64_t not_found_reads_ = 0;
  std::uint64_t read_repairs_ = 0;
};

}  // namespace geored::store
