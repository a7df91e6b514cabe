#include "store/kvstore.h"

#include <algorithm>

#include "common/ensure.h"

namespace geored::store {

ReplicatedKvStore::ReplicatedKvStore(sim::Simulator& simulator, sim::Network& network,
                                     std::vector<place::CandidateInfo> candidates,
                                     StoreConfig config, std::uint64_t seed)
    : simulator_(simulator), network_(network), config_(config) {
  GEORED_ENSURE(!candidates.empty(), "store needs at least one data center");
  GEORED_ENSURE(config_.groups >= 1, "store needs at least one object group");
  GEORED_ENSURE(config_.quorum.n >= 1, "replication factor must be >= 1");
  GEORED_ENSURE(config_.quorum.n <= candidates.size(),
                "replication factor exceeds the candidate pool");
  GEORED_ENSURE(config_.quorum.r >= 1 && config_.quorum.r <= config_.quorum.n,
                "read quorum must be in [1, n]");
  GEORED_ENSURE(config_.quorum.w >= 1 && config_.quorum.w <= config_.quorum.n,
                "write quorum must be in [1, n]");

  config_.manager.replication_degree = config_.quorum.n;
  // A quorum system cannot let the degree drift away from n.
  config_.manager.dynamic_degree = false;

  core::FleetConfig fleet_config;
  fleet_config.groups = config_.groups;
  fleet_config.manager = config_.manager;
  // The quorum system owns the degree; no fleet-wide replica budget here.
  for (const auto& candidate : candidates) storage_.emplace(candidate.node, StorageNode{});
  fleet_ = std::make_unique<core::FleetManager>(std::move(candidates), fleet_config, seed);
}

std::uint32_t ReplicatedKvStore::group_of(ObjectId id) const {
  return static_cast<std::uint32_t>(fleet_->group_of(id));
}

const place::Placement& ReplicatedKvStore::placement_of_group(std::uint32_t group) const {
  GEORED_ENSURE(group < fleet_->group_count(), "group index out of range");
  return fleet_->group(group).placement();
}

const core::ReplicationManager& ReplicatedKvStore::manager_of_group(
    std::uint32_t group) const {
  GEORED_ENSURE(group < fleet_->group_count(), "group index out of range");
  return fleet_->group(group);
}

LamportClock& ReplicatedKvStore::clock_of(topo::NodeId client) {  // lint: no-ensure (total)
  const auto it = clocks_.find(client);
  if (it != clocks_.end()) return it->second;
  return clocks_.emplace(client, LamportClock(client)).first->second;
}

void ReplicatedKvStore::put(topo::NodeId client, const Point& client_coords, ObjectId id,
                            std::string data, std::function<void(const PutResult&)> done) {
  GEORED_ENSURE(static_cast<bool>(done), "put requires a completion callback");
  const std::uint32_t group = group_of(id);
  auto& manager = fleet_->group(group);
  const place::Placement& placement = manager.placement();

  // Hybrid logical clock: advance the writer's clock past both everything
  // it has observed and the current physical time (microseconds of virtual
  // time). Pure per-writer Lamport counters would let an older write win
  // last-writer-wins against a later write by a different client that never
  // observed it; folding in physical time gives LWW the real-time order
  // that sequential consistency needs (writer id still breaks true ties).
  auto& clock = clock_of(client);
  clock.observe({static_cast<std::uint64_t>(simulator_.now() * 1000.0), 0});
  VersionedValue value;
  value.version = clock.next();
  value.data = std::move(data);

  // The user population summary sees the write once, at the replica the
  // client would naturally be served by. The manager stages recorded
  // accesses and ingests them in batches at epoch/read boundaries, so the
  // per-put cost here is one append, not a summarizer update.
  if (const auto nearest = manager.route(client_coords)) {
    manager.record_access(*nearest, client_coords, static_cast<double>(value.data.size()));
  }

  const double started_at = simulator_.now();
  auto acks = std::make_shared<std::size_t>(0);
  auto reported = std::make_shared<bool>(false);
  const std::size_t need = config_.quorum.w;
  const std::size_t payload = value.data.size() + config_.request_overhead_bytes;
  const auto reached = std::make_shared<std::vector<topo::NodeId>>(placement);

  for (const auto replica : placement) {
    network_.send(client, replica, payload, sim::TrafficClass::kAccess,
                  [this, group, replica, id, value, client, started_at, acks, reported,
                   reached, need, done] {
                    deliver_write(group, replica, id, value, reached);
                    // Ack back to the client.
                    network_.send(replica, client, config_.request_overhead_bytes,
                                  sim::TrafficClass::kAccess,
                                  [this, id, value, started_at, acks, reported, need,
                                   done] {
                                    if (++*acks != need || *reported) return;
                                    *reported = true;
                                    // Commit point for the staleness oracle.
                                    auto& committed = committed_[id];
                                    committed = std::max(committed, value.version);
                                    PutResult result;
                                    result.version = value.version;
                                    result.latency_ms = simulator_.now() - started_at;
                                    put_latency_.add(result.latency_ms);
                                    put_latency_histogram_.record(result.latency_ms);
                                    ++writes_;
                                    done(result);
                                  });
                  });
  }
}

void ReplicatedKvStore::get(topo::NodeId client, const Point& client_coords, ObjectId id,
                            std::function<void(const GetResult&)> done) {
  GEORED_ENSURE(static_cast<bool>(done), "get requires a completion callback");
  const std::uint32_t group = group_of(id);
  auto& manager = fleet_->group(group);
  const auto targets = manager.nearest_replicas(client_coords, config_.quorum.r);
  GEORED_CHECK(!targets.empty(), "group has no replicas");

  manager.record_access(targets.front(), client_coords, 1.0);

  const double started_at = simulator_.now();
  // Freshness oracle: what was already committed when the read began.
  const auto committed_it = committed_.find(id);
  const Version committed_at_start =
      committed_it == committed_.end() ? Version::zero() : committed_it->second;

  auto replies = std::make_shared<std::vector<std::pair<topo::NodeId, Version>>>();
  auto best = std::make_shared<VersionedValue>();
  auto reported = std::make_shared<bool>(false);
  const std::size_t need = targets.size();

  for (const auto replica : targets) {
    network_.send(
        client, replica, config_.request_overhead_bytes, sim::TrafficClass::kAccess,
        [this, replica, id, client, started_at, committed_at_start, replies, best,
         reported, need, done] {
          const VersionedValue value = storage_.at(replica).read(id);
          const std::size_t payload = value.data.size() + config_.request_overhead_bytes;
          network_.send(replica, client, payload, sim::TrafficClass::kAccess,
                        [this, replica, id, client, value, started_at, committed_at_start,
                         replies, best, reported, need, done] {
                          if (value.version > best->version) *best = value;
                          replies->emplace_back(replica, value.version);
                          if (replies->size() != need || *reported) return;
                          *reported = true;
                          clock_of(client).observe(best->version);
                          GetResult result;
                          result.value = *best;
                          result.latency_ms = simulator_.now() - started_at;
                          result.stale = best->version < committed_at_start;
                          get_latency_.add(result.latency_ms);
                          get_latency_histogram_.record(result.latency_ms);
                          ++reads_;
                          if (result.stale) ++stale_reads_;
                          if (!result.value.exists()) ++not_found_reads_;
                          // Read repair: push the winning version back to
                          // every contacted replica that returned less.
                          if (config_.read_repair && best->exists()) {
                            const VersionedValue winner = *best;
                            for (const auto& [node, version] : *replies) {
                              if (version >= winner.version) continue;
                              ++read_repairs_;
                              const std::size_t repair_bytes =
                                  winner.data.size() + config_.request_overhead_bytes;
                              network_.send(client, node, repair_bytes,
                                            sim::TrafficClass::kAccess,
                                            [this, node, id, winner] {
                                              storage_.at(node).apply_write(id, winner);
                                            });
                            }
                          }
                          done(result);
                        });
        });
  }
}

void ReplicatedKvStore::deliver_write(  // lint: no-ensure (group checked by put)
    std::uint32_t group, topo::NodeId replica, ObjectId id, const VersionedValue& value,
    const std::shared_ptr<std::vector<topo::NodeId>>& reached) {
  storage_.at(replica).apply_write(id, value);
  // A migration snapshots its source when the placement changes, so a write
  // still in flight at that moment is missing from the snapshot, and the
  // new member would serve reads without it until the object is written
  // again. Whichever replica it lands on first after the change forwards
  // it; `reached` makes that once per member, and a forwarded copy that
  // itself races a later change forwards again.
  for (const auto member : placement_of_group(group)) {
    if (std::find(reached->begin(), reached->end(), member) != reached->end()) continue;
    reached->push_back(member);
    network_.send(replica, member, value.data.size() + config_.request_overhead_bytes,
                  sim::TrafficClass::kMigration, [this, group, member, id, value, reached] {
                    deliver_write(group, member, id, value, reached);
                  });
  }
}

void ReplicatedKvStore::migrate_group(std::uint32_t group,
                                      const place::Placement& old_placement,
                                      const place::Placement& new_placement) {
  const auto group_fn = [this](ObjectId id) { return group_of(id); };

  for (const auto node : new_placement) {
    if (std::find(old_placement.begin(), old_placement.end(), node) !=
        old_placement.end()) {
      continue;  // already holds the group
    }
    // Stream the group's data from the nearest surviving old replica.
    topo::NodeId source = old_placement.front();
    for (const auto old_node : old_placement) {
      if (network_.rtt_ms(old_node, node) < network_.rtt_ms(source, node)) {
        source = old_node;
      }
    }
    auto snapshot = storage_.at(source).export_group(group, group_fn);
    const std::size_t bytes = storage_.at(source).group_bytes(group, group_fn);
    network_.send(source, node, std::max<std::size_t>(bytes, 1),
                  sim::TrafficClass::kMigration,
                  [this, node, snapshot = std::move(snapshot)] {
                    auto& target = storage_.at(node);
                    for (const auto& [id, value] : snapshot) {
                      target.apply_write(id, value);
                    }
                  });
  }
  // Retired replicas drop the group once the new placement is in force.
  for (const auto node : old_placement) {
    if (std::find(new_placement.begin(), new_placement.end(), node) ==
        new_placement.end()) {
      storage_.at(node).drop_group(group, group_fn);
    }
  }
}

std::vector<core::EpochReport> ReplicatedKvStore::run_placement_epochs() {
  // Epochs are pure in-memory placement decisions (no network sends), so
  // running them all first — in parallel inside the fleet — and migrating
  // in group order afterwards schedules exactly the network events the
  // historical epoch-then-migrate-per-group loop produced.
  core::FleetEpochReport fleet_report = fleet_->run_epochs();
  for (std::uint32_t g = 0; g < fleet_report.group_reports.size(); ++g) {
    const core::EpochReport& report = fleet_report.group_reports[g];
    if (report.adopted_placement != report.old_placement) {
      migrate_group(g, report.old_placement, report.adopted_placement);
    }
  }
  return std::move(fleet_report.group_reports);
}

const StorageNode& ReplicatedKvStore::storage_at(topo::NodeId node) const {
  const auto it = storage_.find(node);
  GEORED_ENSURE(it != storage_.end(), "node is not a data center of this store");
  return it->second;
}

}  // namespace geored::store
