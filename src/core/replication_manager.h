// ReplicationManager: the library's primary public API.
//
// One manager governs the replicas of one data object (or one group of
// objects treated as a virtual object, Section II-A). It maintains the
// paper's machinery end to end:
//
//   * a micro-cluster summarizer per current replica (Section III-B),
//   * periodic macro-clustering placement proposals (Algorithm 1),
//   * the migration cost/benefit gate (Section III-C),
//   * optional demand-driven adjustment of the replication degree k.
//
// The manager is deliberately transport-agnostic: callers route client
// accesses to it (serve / record_access) and invoke run_epoch() on whatever
// schedule they like. `core/system.h` wires it into the discrete-event
// simulator; a real deployment would wire it to RPC handlers the same way.
//
// Concurrency contract (capability-annotated, see common/sync.h): the
// *record* paths — serve / record_access / record_access_batch — may be
// called concurrently from any number of threads. Staging is sharded by
// replica (shard = replica id mod ManagerConfig::ingest_shards), each shard
// behind its own mutex, so records to different replicas rarely contend; a
// record only serializes against records to replicas in the same shard and
// against a flush (which holds every shard). No accesses are lost or
// corrupted (the interleaving order across threads is the scheduler's, so
// bit-reproducibility holds only for externally ordered streams); flushes
// merge shards in node-id order, so observable summaries are byte-identical
// at any thread count and any shard count. The *epoch and checkpoint* paths
// — run_epoch / save / restore / commit_checkpoint / summary_of /
// delay_by_degree_curve — require exclusive access to the manager: they
// read and replace the summarizers the record paths feed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "common/point_set.h"
#include "common/serialize.h"
#include "common/sync.h"
#include "core/epoch_pipeline.h"
#include "core/epoch_trace.h"
#include "core/migration.h"
#include "placement/online_clustering.h"
#include "placement/types.h"
#include "serve/replica_panel.h"

namespace geored::core {

/// Checkpoint wire format produced by ReplicationManager::save. The header
/// guards against feeding stale or foreign blobs into restore(): the magic
/// identifies the blob as a manager checkpoint at all, and the version is
/// bumped whenever the payload layout changes so an old blob fails with a
/// clear error instead of misparsing silently.
///
/// Version history:
///   1  placement, degree, per-replica summaries, counters, warm centroids
///   2  v1 + the external budget state (budget_granted flag, budget_weight)
///      appended after the degree field, so a restored coordinator resumes
///      a fleet allocator's decisions. v1 blobs still load; they restore
///      the documented defaults budget_granted = false, budget_weight = 1.
inline constexpr std::uint32_t kCheckpointMagic = 0x47524D43;  // "GRMC"
inline constexpr std::uint32_t kCheckpointVersion = 2;

struct ManagerConfig {
  /// Target degree of replication (the paper's k).
  std::size_t replication_degree = 3;

  /// Per-replica summarizer parameters (the paper's m etc.).
  cluster::SummarizerConfig summarizer;

  /// Macro-clustering parameters (Algorithm 1).
  place::OnlineClusteringConfig strategy;

  /// Migration cost/benefit gate.
  MigrationPolicy migration;

  /// Feed each epoch's macro-cluster centroids into the next epoch as a
  /// k-means warm start, so stable populations produce stable proposals
  /// instead of churning with seeding randomness.
  bool warm_start_macro_clusters = true;

  /// Demand-adaptive degree (paper §III-C: "vary the number of replicas ...
  /// as the demand of an object increases/decreases"). When enabled, the
  /// degree grows by one when the epoch's accesses exceed
  /// grow_accesses_per_replica * degree, and shrinks by one when they fall
  /// below shrink_accesses_per_replica * degree.
  bool dynamic_degree = false;
  double grow_accesses_per_replica = 10000.0;
  double shrink_accesses_per_replica = 1000.0;
  std::size_t min_degree = 1;
  std::size_t max_degree = 7;

  /// Accesses staged per replica before the summarizer ingests them as one
  /// contiguous batch. Staging is invisible to callers — every read path
  /// (run_epoch, summary_of, save, the degree curve) flushes first, so
  /// observable summaries are independent of the grain. 1 = unbatched.
  std::size_t ingest_batch_grain = 256;

  /// Number of staging shards the record paths spread over (replica id mod
  /// shards). A fixed count — deliberately independent of the thread count —
  /// so the staging layout never depends on GEORED_THREADS; flushes merge
  /// shards in node-id order, making summaries byte-identical at any value
  /// here too. More shards = less record-path contention; 1 restores a
  /// single global staging lock.
  std::size_t ingest_shards = 8;
};

/// Outcome of one placement epoch.
struct EpochReport {
  place::Placement old_placement;
  place::Placement proposed_placement;
  place::Placement adopted_placement;  ///< == old unless migrated
  double old_estimated_delay_ms = 0.0; ///< summary-estimated per-access delay
  double new_estimated_delay_ms = 0.0;
  MigrationDecision decision;
  std::size_t replicas_moved = 0;      ///< sites added by the proposal
  std::size_t summary_bytes = 0;       ///< wire size of shipped summaries
  std::uint64_t epoch_accesses = 0;    ///< accesses summarized this epoch
  std::size_t degree = 0;              ///< k in force after the epoch
  std::size_t stale_sources = 0;       ///< sources served from a collector cache
  std::size_t lost_sources = 0;        ///< sources that contributed nothing
  /// Per-stage wall time of this epoch (observational only; see
  /// core/epoch_trace.h — no retained value or decision depends on it).
  EpochStageTrace stages;
};

/// The canonical pipeline for a ManagerConfig: direct in-process collection.
/// A manager built on it behaves byte-identically to the historical
/// hand-inlined run_epoch.
EpochPipeline standard_pipeline(const ManagerConfig& config);

/// The routing panel over `placement` with candidate coordinates; throws
/// for a member missing from `candidates` or listed twice.
serve::ReplicaPanel replica_panel(const std::vector<place::CandidateInfo>& candidates,
                                  const place::Placement& placement);

/// Estimated delay per access of `summaries` at each degree in
/// [min_degree, max_degree], scaled by their total access count: a
/// cold-start online-clustering probe with the registry's defaults
/// (make_strategy("online")) places each degree over `candidates` with
/// `seed`, and each level is floored by the lower ones, so the curve is
/// non-increasing. Bit-identical to building a PlacementInput per degree.
std::vector<double> degree_curve(const std::vector<place::CandidateInfo>& candidates,
                                 const std::vector<cluster::MicroCluster>& summaries,
                                 std::uint64_t seed, std::size_t min_degree,
                                 std::size_t max_degree);

class ReplicationManager {
 public:
  /// `candidates` are the usable data centers (with coordinates); the
  /// initial placement is a seeded random choice of k of them, exactly like
  /// a location-oblivious system would start. Runs epochs on
  /// standard_pipeline(config).
  ReplicationManager(std::vector<place::CandidateInfo> candidates, ManagerConfig config,
                     std::uint64_t seed);

  /// As above, but with an explicit collector — a protocol variant
  /// (hierarchical, decentralized, rpc) without touching the epoch loop.
  /// The pipeline's collector must be set.
  ReplicationManager(std::vector<place::CandidateInfo> candidates, ManagerConfig config,
                     std::uint64_t seed, EpochPipeline pipeline);

  const place::Placement& placement() const { return placement_; }
  std::size_t degree() const { return degree_; }

  /// Chooses the replica that can serve a client at `client_coords` with the
  /// lowest estimated latency, records the access, and returns the replica.
  topo::NodeId serve(const Point& client_coords, double data_weight = 1.0);

  /// Pure routing: the replica nearest `client_coords` in coordinate space,
  /// skipping any replica in `down` (e.g. data centers currently failed);
  /// exact distance ties go to the lowest NodeId. Returns nullopt when
  /// every replica is down. Records nothing — callers that serve the access
  /// follow up with record_access. serve() is route({}) + record_access.
  std::optional<topo::NodeId> route(const Point& client_coords,
                                    const std::set<topo::NodeId>& down = {}) const;

  /// The min(r, degree) replicas nearest `client_coords`, nearest first, in
  /// (distance, NodeId) order — a quorum read's targets. Records nothing.
  std::vector<topo::NodeId> nearest_replicas(const Point& client_coords, std::size_t r) const;

  /// Records an access served by `replica` (which must currently hold a
  /// replica) for a client at `client_coords`. Use this form when the caller
  /// did its own replica selection (e.g. the event-driven simulator).
  /// Accesses are staged and ingested in batches of
  /// ManagerConfig::ingest_batch_grain; results are identical to immediate
  /// ingestion (see flush_ingest).
  void record_access(topo::NodeId replica, const Point& client_coords,
                     double data_weight = 1.0);

  /// Records a whole chunk of accesses served by `replica`: row i of
  /// `client_coords` with data_weights[i] (or 1.0 per row when
  /// `data_weights` is empty). Equivalent to record_access per row in
  /// order; the batch form skips the per-access staging overhead.
  void record_access_batch(topo::NodeId replica, const PointSet& client_coords,
                           std::span<const double> data_weights = {});

  /// Ingests every staged access into its replica's summarizer (in recorded
  /// order per replica; replicas in parallel on the deterministic thread
  /// pool). Called automatically by every state-reading entry point, so it
  /// only needs to be called directly when benchmarking ingestion itself.
  void flush_ingest() const;

  /// Micro-clusters currently held for `replica` (observability / tests).
  const std::vector<cluster::MicroCluster>& summary_of(topo::NodeId replica) const;

  /// Runs one placement epoch: collect summaries, propose a placement,
  /// apply the migration gate, adopt + redistribute summaries on success,
  /// then age all summaries. Deterministic in construction seed and the
  /// sequence of recorded accesses.
  ///
  /// `excluded` lists candidates that must not host replicas this epoch
  /// (e.g. data centers currently failed). If the *current* placement
  /// contains an excluded node, the proposal is adopted unconditionally —
  /// availability overrides the migration cost gate.
  EpochReport run_epoch(const std::set<topo::NodeId>& excluded = {});

  /// Accesses recorded since the last epoch (sum of per-shard counters,
  /// read shard by shard in index order).
  std::uint64_t epoch_accesses() const;

  /// Sets the degree an external allocator (e.g. FleetManager's replica
  /// budget) granted this object, clamped to the configured bounds. Takes
  /// effect at the next epoch: the proposal is sized to the new degree and
  /// adopted under the degree-change rule.
  void set_degree(std::size_t degree);

  /// Whether an external allocator has granted this manager a degree via
  /// set_degree since construction (or since the restored checkpoint said
  /// so) — how a fleet distinguishes "budget decision in force" from "still
  /// on the configured default" after a coordinator failover.
  bool budget_granted() const { return budget_granted_; }

  /// Allocation-priority weight an external controller (scenario engine,
  /// operator) assigned this object. FleetManager multiplies the group's
  /// demand curve by it before dividing the replica budget, so weight 2
  /// bids for replicas as if the group were twice as hot. 1 = neutral.
  void set_budget_weight(double weight);
  double budget_weight() const { return budget_weight_; }

  /// Estimated summary-weighted delay per access for each degree in
  /// [min_degree, max_degree], scaled by the summarized access weight so
  /// hot objects weigh more — the demand curve allocate_replica_budget
  /// consumes: degree_curve over every replica's summaries (ascending node
  /// order) with a probe seed of its own per epoch. Non-increasing by
  /// construction. Does not mutate any state.
  std::vector<double> delay_by_degree_curve(std::size_t min_degree,
                                            std::size_t max_degree) const;

  /// Serializes the full mutable state (placement, degree, per-replica
  /// summaries, epoch counters, warm-start centroids) behind a magic +
  /// format-version header (kCheckpointMagic / kCheckpointVersion) so a
  /// coordinator can checkpoint and a stand-by can resume without losing
  /// the learned usage knowledge.
  void save(ByteWriter& writer) const;

  /// Restores state saved by save(). The manager must have been constructed
  /// with the same candidates and configuration; blobs with a wrong magic
  /// or an unknown format version, and placements referencing unknown
  /// candidates, throw and leave the manager unchanged.
  void restore(ByteReader& reader);

  /// A checkpoint parsed and validated against this manager but not yet
  /// applied. restore() is commit_checkpoint(parse_checkpoint(reader)); the
  /// split lets FleetManager parse every group before committing any.
  struct Checkpoint {
    std::uint64_t epoch_index = 0;
    std::uint64_t epoch_accesses = 0;
    std::size_t degree = 1;
    bool budget_granted = false;
    double budget_weight = 1.0;
    place::Placement placement;
    serve::ReplicaPanel panel;
    std::map<topo::NodeId, cluster::MicroClusterSummarizer> summarizers;
    std::vector<Point> warm_centroids;
  };

  /// Reads and validates one save() blob; throws (as restore does) without
  /// touching the manager.
  Checkpoint parse_checkpoint(ByteReader& reader) const;

  /// Replaces the manager's state with a parsed checkpoint; does not throw
  /// for a checkpoint parse_checkpoint returned.
  void commit_checkpoint(Checkpoint checkpoint);

 private:
  /// Staged accesses awaiting ingestion into one replica's summarizer. The
  /// drained form keeps its buffers (PointSet::clear preserves dimension
  /// and capacity), so steady-state staging is allocation-free; a
  /// mid-stream dimension change therefore throws at the record call that
  /// introduces it rather than at the flush — both are caller errors.
  struct PendingBatch {
    PointSet coords;
    std::vector<double> weights;
  };

  /// One staging shard: a slice of the per-replica pending batches plus its
  /// share of the epoch access counter, behind its own mutex. A replica
  /// always maps to the same shard (node id mod shard count), so a
  /// replica's staged stream — and any grain-triggered ingestion into its
  /// summarizer — is serialized by exactly one mutex. Held by unique_ptr:
  /// a Mutex is a capability identity and cannot move when the vector is
  /// built.
  struct IngestShard {
    mutable Mutex mutex;
    std::map<topo::NodeId, PendingBatch> pending GEORED_GUARDED_BY(mutex);
    std::uint64_t accesses GEORED_GUARDED_BY(mutex) = 0;
  };

  void maybe_adjust_degree(std::uint64_t epoch_accesses);
  IngestShard& shard_of(topo::NodeId replica) const {
    return *ingest_shards_[replica % ingest_shards_.size()];
  }

  std::vector<place::CandidateInfo> candidates_;
  ManagerConfig config_;
  std::uint64_t seed_;
  std::uint64_t epoch_index_ = 0;
  std::size_t degree_;
  bool budget_granted_ = false;
  double budget_weight_ = 1.0;
  place::Placement placement_;
  /// Routing panel over placement_; rebuilt only where placement_ is set.
  serve::ReplicaPanel panel_;
  /// mutable with the shards: staging is a cache layout, not observable
  /// state — const readers flush it so summaries never depend on the grain.
  /// Not guarded: the map's structure is mutated only by the epoch and
  /// checkpoint paths (exclusive by contract); a summarizer's contents are
  /// only mutated under its replica's shard mutex (grain ingestion) or with
  /// every shard held (flush).
  mutable std::map<topo::NodeId, cluster::MicroClusterSummarizer> summarizers_;
  /// Fixed-count staging shards (see ManagerConfig::ingest_shards). A flush
  /// acquires every shard in index order and holds them across its parallel
  /// ingest — pool chunks never take shard mutexes — so records observe
  /// either pre- or post-flush staging, never a torn one.
  mutable std::vector<std::unique_ptr<IngestShard>> ingest_shards_;
  std::unique_ptr<SummaryCollector> collector_;
  /// The latest epoch's macro-cluster centroids: the next proposal's warm
  /// start (when enabled), persisted by save() so a restored stand-by
  /// proposes exactly what the failed coordinator would have.
  std::vector<Point> warm_centroids_;
};

}  // namespace geored::core
