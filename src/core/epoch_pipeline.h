// The placement epoch's one pluggable stage: summary collection.
//
// Algorithm 1 is one fixed loop — collect summaries, macro-cluster them,
// gate the migration, redistribute. Only the first step has real variants,
// so it is the only replaceable stage:
//
//   SummaryCollector   how micro-cluster summaries reach the decision point
//                      (direct in-process, two-level aggregation tree,
//                      all-to-all decentralized agreement, or real RPC)
//
// ReplicationManager::run_epoch runs the collector and then the fixed steps:
// propose (online clustering with the warm-start centroid cache), gate
// (decide_migration over the configured policy) and adopt
// (redistribute_summaries below) or retain (decay). A collector that already
// agreed on a proposal in-protocol (decentralized) skips the propose step.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/summarizer.h"
#include "net/clock.h"
#include "net/rpc_config.h"
#include "placement/types.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace geored::core {

/// One summary source: a node holding micro-clusters to report.
struct SummarySource {
  topo::NodeId node = 0;
  std::vector<cluster::MicroCluster> clusters;
};

/// Epoch-scoped facts every collector may need: which data centers are
/// usable this epoch, the degree in force, and the epoch's decision seed.
struct CollectionContext {
  const std::vector<place::CandidateInfo>& candidates;
  std::size_t k = 3;
  std::uint64_t epoch_seed = 0;
};

/// What a collection round produced.
struct CollectedSummaries {
  /// Every collected micro-cluster, flattened in source order.
  std::vector<cluster::MicroCluster> summaries;
  /// Wire bytes the decision point received (the O(km) cost of Table II).
  std::size_t summary_bytes = 0;
  /// Set when the collection protocol itself already agreed on a proposal
  /// (the decentralized collector); the epoch then skips the propose step.
  std::optional<place::Placement> agreed_proposal;
  /// Sources whose summary could not be collected this round and was served
  /// from the collector's last-epoch cache instead ("rpc" degradation).
  std::vector<topo::NodeId> stale_sources;
  /// Sources that contributed nothing: collection failed and no cached
  /// summary existed. The epoch still completes on what did arrive.
  std::vector<topo::NodeId> lost_sources;
};

/// Ships per-replica summaries to the placement decision point.
class SummaryCollector {
 public:
  virtual ~SummaryCollector() = default;

  /// Registry name of this collector ("direct", "hierarchical", ...).
  virtual std::string name() const = 0;

  /// Collects `sources` (one entry per reporting replica, in source order)
  /// into one flattened summary set. Must be deterministic in the sources
  /// and `context.epoch_seed`.
  virtual CollectedSummaries collect(const std::vector<SummarySource>& sources,
                                     const CollectionContext& context) = 0;
};

/// Today's in-process collection: summaries are concatenated locally and the
/// wire size accounted as if each source serialized straight to the
/// coordinator. Byte-identical to the historical run_epoch collection step.
class DirectCollector final : public SummaryCollector {
 public:
  std::string name() const override { return "direct"; }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override;
};

struct AggregationConfig {
  /// Aggregator count; 0 = ceil(sqrt(#sources)), the bandwidth-balancing
  /// choice for a two-level tree.
  std::size_t aggregator_count = 0;
  /// Micro-cluster budget of each aggregator's merged summary (m̂).
  std::size_t max_clusters_per_aggregator = 16;
};

/// Which data centers aggregate, and who reports to whom.
struct AggregationPlan {
  std::vector<topo::NodeId> aggregators;
  /// source node -> aggregator node (aggregators map to themselves).
  std::map<topo::NodeId, topo::NodeId> parent;
};

/// Chooses aggregators among the candidates (weighted k-means over the
/// sources' coordinates, exactly the machinery of Algorithm 1) and assigns
/// every source to its nearest aggregator — ties go to the first in
/// aggregator order. Deterministic in `seed`.
AggregationPlan plan_aggregation(const std::vector<place::CandidateInfo>& candidates,
                                 const std::vector<SummarySource>& sources,
                                 const AggregationConfig& config, std::uint64_t seed);

/// Hierarchical summary collection. Algorithm 1 ships every replica's
/// micro-clusters straight to one central server; a store managing hundreds
/// of object groups then collects hundreds of summaries per epoch at one
/// node. This collector plans a two-level tree per epoch (plan_aggregation,
/// seeded with the epoch seed): sources send to their nearest regional
/// aggregator, each aggregator merges what it received into a *bounded*
/// micro-cluster set (the CluStream merge the summarizers use), and only the
/// bounded merges travel to `root`. Root inbound bandwidth becomes
/// O(aggregators * m̂) instead of O(sources * m).
///
/// Every message is charged as summary traffic on `network`, and the
/// simulator is run to completion, so afterwards simulator.now() is the
/// moment the root had everything. The reported wire size is the root's
/// inbound bytes — the bandwidth the tree exists to bound.
class HierarchicalCollector final : public SummaryCollector {
 public:
  HierarchicalCollector(sim::Simulator& simulator, sim::Network& network, topo::NodeId root,
                        AggregationConfig config = {});

  std::string name() const override { return "hierarchical"; }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override;

 private:
  sim::Simulator& simulator_;
  sim::Network& network_;
  topo::NodeId root_;
  AggregationConfig config_;
};

/// Decentralized placement epochs — no central server. The whole decision
/// is a deterministic function of (candidate set, summaries, epoch seed), so
/// the replicas exchange their summaries all-to-all and *each* computes the
/// placement locally with the paper's online clustering: with identical
/// inputs (summaries ordered by source id) and an identical seed, every
/// replica arrives at the same proposal without a coordination round, and
/// that agreed proposal is returned. Cost: k*(k-1) summary messages instead
/// of k, still O(k^2 * m) bytes — negligible for the paper's k <= 7.
///
/// The simulator is run to completion, so afterwards simulator.now() is the
/// moment the last replica decided; the reported wire size is the total
/// summary traffic exchanged.
class DecentralizedCollector final : public SummaryCollector {
 public:
  DecentralizedCollector(sim::Simulator& simulator, sim::Network& network);

  std::string name() const override { return "decentralized"; }
  CollectedSummaries collect(const std::vector<SummarySource>& sources,
                             const CollectionContext& context) override;

 private:
  sim::Simulator& simulator_;
  sim::Network& network_;
};

/// The adopt step of every epoch: rebuilds `summarizers` for the replicas of
/// `next`, handing each micro-cluster to the new replica nearest its
/// centroid so usage knowledge survives the move. Placement coordinates are
/// staged once and each centroid resolves with one PointSet::nearest_of
/// scan (ties go to the first replica in `next` order), parallelized over
/// the pool; merges run sequentially in summary order.
void redistribute_summaries(
    const place::Placement& next, const std::vector<cluster::MicroCluster>& summaries,
    const std::vector<place::CandidateInfo>& candidates,
    const cluster::SummarizerConfig& summarizer_config,
    std::map<topo::NodeId, cluster::MicroClusterSummarizer>& summarizers);

/// The epoch's pluggable stage. ReplicationManager owns one pipeline; the
/// collector must be non-null.
struct EpochPipeline {
  std::unique_ptr<SummaryCollector> collector;
};

/// Dependencies a collector implementation may need. "direct" needs none;
/// the protocol collectors run over the simulated network.
struct CollectorConfig {
  sim::Simulator* simulator = nullptr;
  sim::Network* network = nullptr;
  /// Root of the two-level tree ("hierarchical").
  topo::NodeId aggregation_root = 0;
  /// Fault schedule and retry budget ("rpc"); the defaults give a clean
  /// wire, byte-identical to "direct".
  net::RpcCollectorConfig rpc;
  /// Transport clock ("rpc"); null means the real SystemClock. Tests inject
  /// a net::VirtualClock so retry backoff costs no wall time.
  std::shared_ptr<net::Clock> rpc_clock;
};

/// String-keyed collector registry: "direct", "hierarchical",
/// "decentralized", "rpc". Throws std::invalid_argument for unknown names
/// and when a protocol collector is requested without simulator/network
/// ("rpc" runs over real localhost sockets and needs neither).
std::unique_ptr<SummaryCollector> make_collector(const std::string& name,
                                                 const CollectorConfig& config = {});

/// Names make_collector accepts, in registry order.
std::vector<std::string> collector_names();

}  // namespace geored::core
