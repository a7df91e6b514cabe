#include "core/replication_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/ensure.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "placement/evaluate.h"
#include "placement/random_placement.h"

namespace geored::core {

EpochPipeline standard_pipeline(const ManagerConfig& /*config*/) {
  EpochPipeline pipeline;
  pipeline.collector = std::make_unique<DirectCollector>();
  return pipeline;
}

serve::ReplicaPanel replica_panel(const std::vector<place::CandidateInfo>& candidates,
                                  const place::Placement& placement) {
  std::vector<serve::ReplicaSpec> specs;
  specs.reserve(placement.size());
  for (const auto node : placement) {
    const auto it =
        std::find_if(candidates.begin(), candidates.end(),
                     [node](const place::CandidateInfo& c) { return c.node == node; });
    GEORED_ENSURE(it != candidates.end(), "node is not a candidate data center");
    specs.push_back({node, it->coords});
  }
  serve::ReplicaPanel panel;
  panel.set_replicas(specs);
  return panel;
}

namespace {

/// A summary set staged once for any number of delay estimates: the
/// centroid and access count of every micro-cluster with accesses, in
/// summary order.
struct StagedSummaries {
  PointSet centroids;
  std::vector<double> counts;
};

StagedSummaries stage_summaries(const std::vector<cluster::MicroCluster>& summaries) {
  StagedSummaries staged;
  staged.counts.reserve(summaries.size());
  for (const auto& micro : summaries) {
    if (micro.count() == 0) continue;
    staged.centroids.push_back(micro.centroid());
    staged.counts.push_back(static_cast<double>(micro.count()));
  }
  return staged;
}

/// Per-access delay estimated from the summaries themselves: each
/// micro-cluster's population is assumed to sit at its centroid and read
/// from the nearest replica (in coordinate space); 0 with no accesses. One
/// nearest2_batch pass answers every centroid, bit-identical to a
/// nearest_up loop. sqrt is monotone and correctly rounded, so sqrt of the
/// minimum squared distance equals the minimum of the sqrt distances bit
/// for bit.
double estimate_average_delay(const serve::ReplicaPanel& panel,
                              const StagedSummaries& staged) {
  const std::size_t n = staged.counts.size();
  if (n == 0) return 0.0;
  std::vector<std::size_t> nearest(n);
  std::vector<double> best_sq(n), second_sq(n);
  panel.nearest2_batch(staged.centroids, nullptr, n, nearest.data(), best_sq.data(),
                       second_sq.data());
  double total = 0.0, accesses = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::sqrt(best_sq[i]) * staged.counts[i];
    accesses += staged.counts[i];
  }
  return total / accesses;
}

}  // namespace

std::vector<double> degree_curve(const std::vector<place::CandidateInfo>& candidates,
                                 const std::vector<cluster::MicroCluster>& summaries,
                                 std::uint64_t seed, std::size_t min_degree,
                                 std::size_t max_degree) {
  GEORED_ENSURE(min_degree >= 1 && min_degree <= max_degree,
                "degree bounds must satisfy 1 <= min <= max");
  double weight = 0.0;
  for (const auto& micro : summaries) weight += static_cast<double>(micro.count());
  // A cold-start probe with the registry's default online-clustering
  // configuration; the pseudo-points and the estimate's centroids are
  // staged once for every degree.
  const place::OnlineClusteringPlacement probe;
  const std::vector<cluster::WeightedPoint> pseudo_points = probe.pseudo_points(summaries);
  const StagedSummaries staged = stage_summaries(summaries);
  std::vector<double> curve;
  curve.reserve(max_degree - min_degree + 1);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = min_degree; k <= max_degree; ++k) {
    const place::Placement placement =
        probe.place_points(pseudo_points, candidates, k, seed).placement;
    const double per_access =
        estimate_average_delay(replica_panel(candidates, placement), staged);
    // More replicas can only help; clustering noise may say otherwise, so
    // each level is floored by its predecessors — the allocator requires a
    // non-increasing curve.
    best = std::min(best, per_access);
    // Scaled by summarized access weight: the budget allocator compares
    // absolute delay totals across groups, and hot objects matter more.
    curve.push_back(best * weight);
  }
  return curve;
}

ReplicationManager::ReplicationManager(std::vector<place::CandidateInfo> candidates,
                                       ManagerConfig config, std::uint64_t seed)
    : ReplicationManager(std::move(candidates), config, seed, standard_pipeline(config)) {}

ReplicationManager::ReplicationManager(std::vector<place::CandidateInfo> candidates,
                                       ManagerConfig config, std::uint64_t seed,
                                       EpochPipeline pipeline)
    : candidates_(std::move(candidates)),
      config_(config),
      seed_(seed),
      degree_(config.replication_degree),
      collector_(std::move(pipeline.collector)) {
  GEORED_ENSURE(!candidates_.empty(), "manager needs at least one candidate data center");
  GEORED_ENSURE(config_.replication_degree >= 1, "replication degree must be >= 1");
  GEORED_ENSURE(config_.min_degree >= 1 && config_.min_degree <= config_.max_degree,
                "degree bounds must satisfy 1 <= min <= max");
  GEORED_ENSURE(collector_ != nullptr, "the epoch pipeline needs a collector");
  GEORED_ENSURE(config_.ingest_batch_grain >= 1, "ingest_batch_grain must be >= 1");
  GEORED_ENSURE(config_.ingest_shards >= 1, "ingest_shards must be >= 1");
  degree_ = std::clamp(degree_, config_.min_degree, config_.max_degree);
  ingest_shards_.reserve(config_.ingest_shards);
  for (std::size_t s = 0; s < config_.ingest_shards; ++s) {
    ingest_shards_.push_back(std::make_unique<IngestShard>());
  }

  placement_ = place::random_placement(candidates_, degree_, seed_);
  panel_ = replica_panel(candidates_, placement_);
  for (const auto node : placement_) {
    summarizers_.emplace(node, cluster::MicroClusterSummarizer(config_.summarizer));
  }
}

topo::NodeId ReplicationManager::serve(const Point& client_coords, double data_weight) {
  GEORED_CHECK(!placement_.empty(), "manager has no replicas");
  const auto best = route(client_coords);
  record_access(*best, client_coords, data_weight);
  return *best;
}

std::optional<topo::NodeId> ReplicationManager::route(
    const Point& client_coords, const std::set<topo::NodeId>& down) const {
  GEORED_ENSURE(client_coords.dim() == panel_.dim(), "client coordinate dimension mismatch");
  const std::size_t row =
      panel_.nearest_up(client_coords.values().data(), nullptr,
                        [&](std::size_t r) { return !down.contains(panel_.up_node(r)); });
  if (row == serve::ReplicaPanel::kNone) return std::nullopt;
  return panel_.up_node(row);
}

std::vector<topo::NodeId> ReplicationManager::nearest_replicas(const Point& client_coords,
                                                               std::size_t r) const {
  GEORED_ENSURE(client_coords.dim() == panel_.dim(), "client coordinate dimension mismatch");
  std::vector<topo::NodeId> nearest;
  panel_.nearest_r(client_coords.values().data(), r, nearest);
  return nearest;
}

void ReplicationManager::record_access(topo::NodeId replica, const Point& client_coords,
                                       double data_weight) {
  const auto it = summarizers_.find(replica);
  GEORED_ENSURE(it != summarizers_.end(), "node does not currently hold a replica");
  GEORED_ENSURE(std::isfinite(data_weight) && data_weight >= 0.0,
                "access weight must be finite and non-negative");
  IngestShard& shard = shard_of(replica);
  const MutexLock lock(shard.mutex);
  PendingBatch& batch = shard.pending[replica];
  batch.coords.push_back(client_coords);
  batch.weights.push_back(data_weight);
  ++shard.accesses;
  if (batch.coords.size() >= config_.ingest_batch_grain) {
    // Grain-triggered ingestion under the shard lock is race-free: this
    // replica's summarizer is only ever written under this same shard's
    // mutex (replica -> shard is a fixed mapping) or with every shard held.
    it->second.add_batch(batch.coords, batch.weights);
    batch.coords.clear();
    batch.weights.clear();
  }
}

void ReplicationManager::record_access_batch(topo::NodeId replica,
                                             const PointSet& client_coords,
                                             std::span<const double> data_weights) {
  const auto it = summarizers_.find(replica);
  GEORED_ENSURE(it != summarizers_.end(), "node does not currently hold a replica");
  GEORED_ENSURE(data_weights.empty() || data_weights.size() == client_coords.size(),
                "access weight count must match coordinate row count");
  for (const double weight : data_weights) {
    GEORED_ENSURE(std::isfinite(weight) && weight >= 0.0,
                  "access weight must be finite and non-negative");
  }
  const std::size_t n = client_coords.size();
  if (n == 0) return;
  IngestShard& shard = shard_of(replica);
  const MutexLock lock(shard.mutex);
  PendingBatch& batch = shard.pending[replica];
  batch.coords.append_rows(client_coords.row(0), n, client_coords.dim());
  if (data_weights.empty()) {
    batch.weights.insert(batch.weights.end(), n, 1.0);
  } else {
    batch.weights.insert(batch.weights.end(), data_weights.begin(), data_weights.end());
  }
  shard.accesses += n;
  if (batch.coords.size() >= config_.ingest_batch_grain) {
    // Same single-writer argument as record_access: the shard mutex is the
    // one lock this replica's summarizer is ever written under.
    it->second.add_batch(batch.coords, batch.weights);
    batch.coords.clear();
    batch.weights.clear();
  }
}

// Thread-safety analysis is disabled here because the flush acquires a
// runtime-sized family of shard mutexes in a loop — a pattern TSA cannot
// verify (it reasons about lexical capability expressions, not loop-carried
// lock sets). The discipline it would otherwise check is simple and local:
// every shard mutex is acquired in ascending index order (the single global
// acquisition order, so flushes never deadlock each other or the record
// paths, which take exactly one shard), all staged state is read only while
// every lock is held, and every lock is released on exit.
void ReplicationManager::flush_ingest() const GEORED_NO_THREAD_SAFETY_ANALYSIS {
  for (auto& shard : ingest_shards_) shard->mutex.lock();
  // Gather the replicas with staged accesses across all shards, sorted by
  // node id, so the work list — and thus which summarizer each parallel
  // chunk touches — is deterministic and independent of the shard count
  // (each replica lives in exactly one shard, so the merge is a disjoint
  // union). Each replica's stream ingests sequentially in recorded order;
  // replicas are independent, so any thread count yields bytewise the same
  // summaries. Every shard mutex stays held across the parallel ingest
  // (chunks never take them), so concurrent record calls wait for the
  // flush instead of staging into batches mid-drain.
  struct WorkItem {
    topo::NodeId node;
    PendingBatch* batch;
    cluster::MicroClusterSummarizer* summarizer;
  };
  std::vector<WorkItem> work;
  for (auto& shard : ingest_shards_) {
    for (auto& [node, batch] : shard->pending) {
      if (batch.coords.empty()) continue;
      work.push_back({node, &batch, &summarizers_.at(node)});
    }
  }
  std::sort(work.begin(), work.end(),
            [](const WorkItem& a, const WorkItem& b) { return a.node < b.node; });
  if (!work.empty()) {
    parallel_for(
        work.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            work[i].summarizer->add_batch(work[i].batch->coords, work[i].batch->weights);
            work[i].batch->coords.clear();
            work[i].batch->weights.clear();
          }
        },
        /*min_parallel=*/2);
  }
  for (auto it = ingest_shards_.rbegin(); it != ingest_shards_.rend(); ++it) {
    (*it)->mutex.unlock();
  }
}

std::uint64_t ReplicationManager::epoch_accesses() const {
  std::uint64_t total = 0;
  for (const auto& shard : ingest_shards_) {
    const MutexLock lock(shard->mutex);
    total += shard->accesses;
  }
  return total;
}

const std::vector<cluster::MicroCluster>& ReplicationManager::summary_of(
    topo::NodeId replica) const {
  flush_ingest();
  const auto it = summarizers_.find(replica);
  GEORED_ENSURE(it != summarizers_.end(), "node does not currently hold a replica");
  return it->second.clusters();
}

void ReplicationManager::maybe_adjust_degree(std::uint64_t epoch_accesses) {
  if (!config_.dynamic_degree) return;
  const auto accesses = static_cast<double>(epoch_accesses);
  const auto replicas = static_cast<double>(degree_);
  if (accesses > config_.grow_accesses_per_replica * replicas &&
      degree_ < config_.max_degree) {
    ++degree_;
  } else if (accesses < config_.shrink_accesses_per_replica * replicas &&
             degree_ > config_.min_degree) {
    --degree_;
  }
}

void ReplicationManager::set_degree(std::size_t degree) {
  GEORED_ENSURE(degree >= 1, "replication degree must be >= 1");
  degree_ = std::clamp(degree, config_.min_degree, config_.max_degree);
  budget_granted_ = true;
}

void ReplicationManager::set_budget_weight(double weight) {
  GEORED_ENSURE(std::isfinite(weight) && weight > 0.0,
                "budget weight must be positive and finite");
  budget_weight_ = weight;
}

std::vector<double> ReplicationManager::delay_by_degree_curve(std::size_t min_degree,
                                                              std::size_t max_degree) const {
  flush_ingest();
  std::vector<cluster::MicroCluster> summaries;
  for (const auto& [node, summarizer] : summarizers_) {
    summaries.insert(summaries.end(), summarizer.clusters().begin(),
                     summarizer.clusters().end());
  }
  // A cold start: the warm-start cache is left untouched so probing cannot
  // perturb proposals. A seed stream distinct from the epoch proposals', so
  // the probe and the next run_epoch never correlate.
  return degree_curve(candidates_, summaries, seed_ ^ (0xd1b54a32d192ed03ULL + epoch_index_),
                      min_degree, max_degree);
}

void ReplicationManager::save(ByteWriter& writer) const {
  flush_ingest();
  writer.write_u32(kCheckpointMagic);
  writer.write_u32(kCheckpointVersion);
  writer.write_u64(epoch_index_);
  writer.write_u64(this->epoch_accesses());
  writer.write_u64(degree_);
  // v2: the external budget state, so a restored stand-by resumes a fleet
  // allocator's decisions instead of reverting to the configured defaults.
  writer.write_u32(budget_granted_ ? 1 : 0);
  writer.write_f64(budget_weight_);
  writer.write_u32(static_cast<std::uint32_t>(placement_.size()));
  for (const auto node : placement_) writer.write_u32(node);
  for (const auto node : placement_) {
    summarizers_.at(node).serialize(writer);
  }
  writer.write_u32(static_cast<std::uint32_t>(warm_centroids_.size()));
  for (const auto& centroid : warm_centroids_) {
    writer.write_f64_vector(centroid.values());
  }
}

void ReplicationManager::restore(ByteReader& reader) {
  commit_checkpoint(parse_checkpoint(reader));
}

ReplicationManager::Checkpoint ReplicationManager::parse_checkpoint(
    ByteReader& reader) const {
  const std::uint32_t magic = reader.read_u32();
  GEORED_ENSURE(magic == kCheckpointMagic,
                "not a replication-manager checkpoint (bad magic)");
  const std::uint32_t version = reader.read_u32();
  GEORED_ENSURE(version >= 1 && version <= kCheckpointVersion,
                "unsupported checkpoint format version " + std::to_string(version) +
                    " (this build reads versions 1.." + std::to_string(kCheckpointVersion) +
                    ")");
  Checkpoint checkpoint;
  checkpoint.epoch_index = reader.read_u64();
  checkpoint.epoch_accesses = reader.read_u64();
  checkpoint.degree = static_cast<std::size_t>(reader.read_u64());
  GEORED_ENSURE(checkpoint.degree >= 1, "corrupt checkpoint: zero degree");
  // v1 predates external budget state; restore the documented defaults
  // (no grant recorded, neutral weight).
  if (version >= 2) {
    checkpoint.budget_granted = reader.read_u32() != 0;
    checkpoint.budget_weight = reader.read_f64();
    GEORED_ENSURE(std::isfinite(checkpoint.budget_weight) && checkpoint.budget_weight > 0.0,
                  "corrupt checkpoint: budget weight must be positive and finite");
  }
  const std::uint32_t placement_size = reader.read_u32();
  checkpoint.placement.reserve(placement_size);
  for (std::uint32_t i = 0; i < placement_size; ++i) {
    checkpoint.placement.push_back(reader.read_u32());
  }
  // Throws for unknown or repeated nodes.
  checkpoint.panel = replica_panel(candidates_, checkpoint.placement);
  for (const auto node : checkpoint.placement) {
    cluster::MicroClusterSummarizer summarizer(config_.summarizer);
    for (const auto& micro : cluster::MicroClusterSummarizer::deserialize_clusters(reader)) {
      summarizer.merge_cluster(micro);
    }
    checkpoint.summarizers.emplace(node, std::move(summarizer));
  }
  const std::uint32_t centroid_count = reader.read_u32();
  checkpoint.warm_centroids.reserve(centroid_count);
  for (std::uint32_t i = 0; i < centroid_count; ++i) {
    checkpoint.warm_centroids.emplace_back(reader.read_f64_vector());
  }
  return checkpoint;
}

void ReplicationManager::commit_checkpoint(Checkpoint checkpoint) {
  // Drain staged accesses into the summarizers being replaced, matching the
  // unbatched semantics where every recorded access had been ingested by
  // the time restore ran.
  flush_ingest();
  // The restored access count lands in shard 0 (the sum across shards is
  // the observable value; its split is staging layout, not state).
  epoch_index_ = checkpoint.epoch_index;
  for (std::size_t s = 0; s < ingest_shards_.size(); ++s) {
    const MutexLock lock(ingest_shards_[s]->mutex);
    ingest_shards_[s]->accesses = s == 0 ? checkpoint.epoch_accesses : 0;
  }
  degree_ = checkpoint.degree;
  budget_granted_ = checkpoint.budget_granted;
  budget_weight_ = checkpoint.budget_weight;
  placement_ = std::move(checkpoint.placement);
  panel_ = std::move(checkpoint.panel);
  summarizers_ = std::move(checkpoint.summarizers);
  warm_centroids_ = std::move(checkpoint.warm_centroids);
}

EpochReport ReplicationManager::run_epoch(const std::set<topo::NodeId>& excluded) {
  EpochReport report;
  {
    const StageTimer timer(report.stages.ingest_flush_ms);
    flush_ingest();
  }
  report.old_placement = placement_;
  report.epoch_accesses = epoch_accesses();

  // Candidates usable this epoch.
  std::vector<place::CandidateInfo> usable;
  usable.reserve(candidates_.size());
  for (const auto& candidate : candidates_) {
    if (!excluded.contains(candidate.node)) usable.push_back(candidate);
  }
  GEORED_ENSURE(!usable.empty(), "every candidate data center is excluded");
  bool current_placement_impaired = false;
  for (const auto node : placement_) {
    if (excluded.contains(node)) current_placement_impaired = true;
  }

  // 1. Demand-adaptive degree. Adjusted before collection so protocol
  //    collectors see the k actually in force this epoch; collection reads
  //    neither the degree nor the access counter, so the order cannot
  //    change results.
  maybe_adjust_degree(report.epoch_accesses);
  report.degree = degree_;

  // 2. Collect summaries from every replica (and account their wire size —
  //    this is the O(km) bandwidth of Table II). A replica on an excluded
  //    (failed) data center cannot report: its summary is skipped and the
  //    source accounted as lost, exactly like a collection-protocol loss —
  //    the epoch proceeds on what the live replicas know.
  std::vector<SummarySource> sources;
  sources.reserve(summarizers_.size());
  std::size_t excluded_sources = 0;
  for (const auto& [node, summarizer] : summarizers_) {
    if (excluded.contains(node)) {
      ++excluded_sources;
      continue;
    }
    sources.push_back({node, summarizer.clusters()});
  }
  const std::uint64_t epoch_seed = seed_ ^ (0x9e3779b97f4a7c15ULL + epoch_index_);
  CollectedSummaries collected = [&] {
    const StageTimer timer(report.stages.collect_ms);
    return collector_->collect(sources, {usable, degree_, epoch_seed});
  }();
  report.summary_bytes = collected.summary_bytes;
  report.stale_sources = collected.stale_sources.size();
  report.lost_sources = collected.lost_sources.size() + excluded_sources;

  // 3. Propose a placement over the usable candidates by macro-clustering
  //    (Algorithm 1) — unless the collection protocol already agreed on one
  //    (decentralized collection decides in-protocol).
  if (collected.agreed_proposal.has_value()) {
    report.proposed_placement = std::move(*collected.agreed_proposal);
  } else {
    const StageTimer timer(report.stages.propose_ms);
    place::PlacementInput input;
    input.candidates = usable;
    input.k = degree_;
    input.summaries = collected.summaries;
    input.seed = epoch_seed;
    place::OnlineClusteringConfig strategy = config_.strategy;
    if (config_.warm_start_macro_clusters) strategy.warm_start_centroids = warm_centroids_;
    place::OnlineClusteringDetails details =
        place::OnlineClusteringPlacement(strategy).place_detailed(input);
    // The cache always tracks the latest macro-clustering, even when warm
    // starts are disabled — checkpoints then capture it either way.
    warm_centroids_ = std::move(details.macro_centroids);
    report.proposed_placement = std::move(details.placement);
  }

  // 4. Migration gate.
  {
    const StageTimer timer(report.stages.gate_ms);
    const StagedSummaries staged = stage_summaries(collected.summaries);
    report.old_estimated_delay_ms = estimate_average_delay(panel_, staged);
    report.new_estimated_delay_ms =
        estimate_average_delay(replica_panel(candidates_, report.proposed_placement), staged);
    std::size_t moved = 0;
    for (const auto node : report.proposed_placement) {
      if (std::find(placement_.begin(), placement_.end(), node) == placement_.end()) ++moved;
    }
    report.replicas_moved = moved;
    report.decision = decide_migration(config_.migration, report.old_estimated_delay_ms,
                                       report.new_estimated_delay_ms, moved);
  }

  // 5. Adopt or retain. A degree change must be applied even if the gate
  // rejects the proposal's quality gain; in that case adopt the proposal
  // anyway (capacity change dominates cost considerations here, as in the
  // paper's discussion). Likewise when a current replica sits on an
  // excluded (failed) data center: availability overrides the cost gate.
  const bool degree_changed = report.proposed_placement.size() != placement_.size();
  {
    const StageTimer timer(report.stages.adopt_ms);
    if (report.decision.migrate || degree_changed || current_placement_impaired) {
      placement_ = report.proposed_placement;
      panel_ = replica_panel(candidates_, placement_);
      redistribute_summaries(placement_, collected.summaries, candidates_, config_.summarizer,
                             summarizers_);
    } else {
      // Age the retained summaries so stale populations fade (recency).
      for (auto& [node, summarizer] : summarizers_) summarizer.decay();
    }
  }
  report.adopted_placement = placement_;

  for (const auto& shard : ingest_shards_) {
    const MutexLock lock(shard->mutex);
    shard->accesses = 0;
  }
  ++epoch_index_;
  return report;
}

}  // namespace geored::core
