#include "core/epoch_pipeline.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/kmeans.h"
#include "common/arena.h"
#include "common/ensure.h"
#include "common/point_set.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "net/rpc_collector.h"
#include "placement/assign.h"
#include "placement/strategy.h"

namespace geored::core {

namespace {

const place::CandidateInfo& find_candidate(const std::vector<place::CandidateInfo>& candidates,
                                           topo::NodeId node) {
  const auto it =
      std::find_if(candidates.begin(), candidates.end(),
                   [node](const place::CandidateInfo& c) { return c.node == node; });
  GEORED_ENSURE(it != candidates.end(), "node is not a candidate data center");
  return *it;
}

/// The coordinates of `nodes`, staged once as one PointSet row per node in
/// list order, so a nearest-node question is one nearest_of scan whose
/// strict-`<` first winner is the first node in list order on ties.
PointSet stage_coordinates(const std::vector<place::CandidateInfo>& candidates,
                           const std::vector<topo::NodeId>& nodes) {
  PointSet coords(find_candidate(candidates, nodes.front()).coords.dim());
  coords.reserve(nodes.size());
  for (const auto node : nodes) coords.push_back(find_candidate(candidates, node).coords);
  return coords;
}

/// Below this many summaries the nearest-placement resolution stays
/// sequential (pool dispatch would dominate; the direct-collection case is
/// k*m summaries, far under this). Per-summary results are written
/// independently, so the parallel pass is bitwise identical to the
/// sequential one at any thread count.
constexpr std::size_t kMinParallelSummaries = 2048;

}  // namespace

CollectedSummaries DirectCollector::collect(const std::vector<SummarySource>& sources,
                                            const CollectionContext& context) {
  (void)context;
  CollectedSummaries collected;
  ByteWriter writer;
  for (const auto& source : sources) {
    cluster::write_clusters(writer, source.clusters);
    for (const auto& micro : source.clusters) collected.summaries.push_back(micro);
  }
  collected.summary_bytes = writer.size();
  return collected;
}

AggregationPlan plan_aggregation(const std::vector<place::CandidateInfo>& candidates,
                                 const std::vector<SummarySource>& sources,
                                 const AggregationConfig& config, std::uint64_t seed) {
  GEORED_ENSURE(!candidates.empty(), "aggregation needs candidate data centers");
  GEORED_ENSURE(!sources.empty(), "aggregation needs at least one source");

  std::size_t aggregator_count = config.aggregator_count;
  if (aggregator_count == 0) {
    aggregator_count = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(sources.size()))));
  }
  aggregator_count = std::min(aggregator_count, candidates.size());

  // Aggregators sit where the sources are: weighted k-means over source
  // coordinates (weight = cluster mass), mapped to distinct data centers.
  // Once-per-epoch planning, one point per source.
  std::vector<cluster::WeightedPoint> points;  // lint: alloc-ok
  for (const auto& source : sources) {
    double mass = 0.0;
    Point sum;
    for (const auto& micro : source.clusters) {
      if (micro.count() == 0) continue;
      if (sum.empty()) sum = Point(micro.centroid().dim());
      sum += micro.centroid() * static_cast<double>(micro.count());
      mass += static_cast<double>(micro.count());
    }
    if (mass > 0.0) {
      points.push_back({sum / mass, mass});
    } else {
      // A source with no usage still needs an aggregator; use its location.
      points.push_back({find_candidate(candidates, source.node).coords, 1.0});
    }
  }

  cluster::KMeansConfig kmeans_config;
  kmeans_config.k = aggregator_count;
  Rng rng(seed);
  const auto result = cluster::weighted_kmeans(points, kmeans_config, rng);
  std::vector<double> mass(result.centroids.size(), 0.0);  // lint: alloc-ok
  for (std::size_t i = 0; i < points.size(); ++i) {
    mass[result.assignment[i]] += points[i].weight;
  }
  AggregationPlan plan;
  plan.aggregators = place::assign_centroids_to_candidates(
      result.centroids, mass, candidates, aggregator_count, seed);

  const PointSet aggregator_coords = stage_coordinates(candidates, plan.aggregators);
  for (const auto& source : sources) {
    plan.parent[source.node] = plan.aggregators[aggregator_coords.nearest_of(
        find_candidate(candidates, source.node).coords)];
  }
  return plan;
}

HierarchicalCollector::HierarchicalCollector(sim::Simulator& simulator, sim::Network& network,
                                             topo::NodeId root, AggregationConfig config)
    : simulator_(simulator), network_(network), root_(root), config_(config) {
  GEORED_ENSURE(config_.max_clusters_per_aggregator >= 1,
                "aggregators need at least one micro-cluster of budget");
}

CollectedSummaries HierarchicalCollector::collect(const std::vector<SummarySource>& sources,
                                                  const CollectionContext& context) {
  GEORED_ENSURE(simulator_.pending_events() == 0,
                "hierarchical collection runs the simulator to completion; it must hold "
                "no other events");
  GEORED_ENSURE(!sources.empty(), "hierarchical collection needs at least one source");
  // A fresh tree per epoch: sources move with the placement, so yesterday's
  // aggregator assignment may be arbitrarily bad today.
  const AggregationPlan plan =
      plan_aggregation(context.candidates, sources, config_, context.epoch_seed);

  // Per-aggregator state: a bounded merger plus the number of pending
  // source reports.
  struct AggregatorState {
    cluster::MicroClusterSummarizer merger;
    std::size_t pending = 0;
    explicit AggregatorState(const cluster::SummarizerConfig& config) : merger(config) {}
  };
  cluster::SummarizerConfig merger_config;
  merger_config.max_clusters = config_.max_clusters_per_aggregator;
  auto states = std::make_shared<std::map<topo::NodeId, AggregatorState>>();
  for (const auto aggregator : plan.aggregators) {
    states->emplace(aggregator, AggregatorState(merger_config));
  }
  for (const auto& source : sources) ++states->at(plan.parent.at(source.node)).pending;

  auto collected = std::make_shared<CollectedSummaries>();
  // Phase 2 sender: an aggregator finished -> forward its bounded merge.
  const auto forward_to_root = [&network = network_, states, collected,
                                root = root_](topo::NodeId aggregator) {
    const auto clusters = states->at(aggregator).merger.clusters();
    const std::size_t bytes = cluster::serialized_size(clusters);
    collected->summary_bytes += bytes;
    network.send(aggregator, root, bytes, sim::TrafficClass::kSummary,
                 [collected, clusters] {
                   for (const auto& micro : clusters) collected->summaries.push_back(micro);
                 });
  };

  // Phase 1: every source ships its summary to its aggregator.
  for (const auto& source : sources) {
    const topo::NodeId aggregator = plan.parent.at(source.node);
    const std::size_t bytes = cluster::serialized_size(source.clusters);
    const auto clusters = source.clusters;
    network_.send(source.node, aggregator, bytes, sim::TrafficClass::kSummary,
                  [states, aggregator, clusters, forward_to_root] {
                    auto& state = states->at(aggregator);
                    for (const auto& micro : clusters) state.merger.merge_cluster(micro);
                    if (--state.pending == 0) forward_to_root(aggregator);
                  });
  }

  simulator_.run();
  return std::move(*collected);
}

DecentralizedCollector::DecentralizedCollector(sim::Simulator& simulator,
                                               sim::Network& network)
    : simulator_(simulator), network_(network) {}

CollectedSummaries DecentralizedCollector::collect(const std::vector<SummarySource>& sources,
                                                   const CollectionContext& context) {
  GEORED_ENSURE(simulator_.pending_events() == 0,
                "decentralized collection runs the simulator to completion; it must hold "
                "no other events");
  GEORED_ENSURE(!context.candidates.empty(), "decentralized collection needs candidates");
  GEORED_ENSURE(!sources.empty(), "decentralized collection needs at least one source");
  // Once-per-epoch summary regrouping (~max_clusters x replicas entries),
  // not a per-access path.
  std::map<topo::NodeId, std::vector<cluster::MicroCluster>>  // lint: alloc-ok
      replica_summaries;
  for (const auto& source : sources) {
    auto& clusters = replica_summaries[source.node];
    clusters.insert(clusters.end(), source.clusters.begin(), source.clusters.end());
  }
  const std::size_t base_summary_bytes =
      network_.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)];

  // Per-replica inbox: source id -> clusters. Each replica starts with its
  // own summary and waits for the k-1 others.
  struct ReplicaState {
    std::map<topo::NodeId, std::vector<cluster::MicroCluster>> inbox;  // lint: alloc-ok
    place::Placement decision;
    bool decided = false;
  };
  auto states = std::make_shared<std::map<topo::NodeId, ReplicaState>>();
  for (const auto& [node, clusters] : replica_summaries) {
    (*states)[node].inbox.emplace(node, clusters);
  }
  const std::size_t expected = replica_summaries.size();
  // The shared decision rule: identical inputs + a deterministic strategy
  // is what makes agreement work.
  std::shared_ptr<const place::PlacementStrategy> strategy = place::make_strategy("online");
  const auto decide = [candidates = context.candidates, k = context.k,
                       epoch_seed = context.epoch_seed, strategy](ReplicaState& state) {
    // Deterministic flatten: summaries in source-id order (std::map order).
    place::PlacementInput input;
    input.candidates = candidates;
    input.k = k;
    input.seed = epoch_seed;
    for (const auto& [source, clusters] : state.inbox) {
      for (const auto& micro : clusters) input.summaries.push_back(micro);
    }
    state.decision = strategy->place(input);
    state.decided = true;
  };

  // Broadcast every replica's summary to its peers.
  for (const auto& [from, clusters] : replica_summaries) {
    const std::size_t bytes = cluster::serialized_size(clusters);
    for (const auto& [to, unused] : replica_summaries) {
      if (to == from) continue;
      const auto payload = clusters;
      const topo::NodeId sender = from;
      network_.send(sender, to, bytes, sim::TrafficClass::kSummary,
                    [states, to, sender, payload, expected, decide] {
                      auto& state = states->at(to);
                      state.inbox.emplace(sender, payload);
                      if (state.inbox.size() == expected && !state.decided) decide(state);
                    });
    }
  }
  // Single-replica degenerate case: it decides alone, immediately.
  if (expected == 1) decide(states->begin()->second);

  simulator_.run();

  const place::Placement& agreed = states->begin()->second.decision;
  for (const auto& [node, state] : *states) {
    GEORED_CHECK(state.decided, "a replica never received all summaries");
    GEORED_CHECK(state.decision == agreed,
                 "deterministic replicas diverged on identical summaries and seed");
  }
  CollectedSummaries collected;
  // Flatten in source-id order — the exact input every replica decided on.
  for (const auto& [source, clusters] : replica_summaries) {
    for (const auto& micro : clusters) collected.summaries.push_back(micro);
  }
  collected.summary_bytes =
      network_.stats().bytes[static_cast<std::size_t>(sim::TrafficClass::kSummary)] -
      base_summary_bytes;
  collected.agreed_proposal = agreed;
  return collected;
}

void redistribute_summaries(
    const place::Placement& next, const std::vector<cluster::MicroCluster>& summaries,
    const std::vector<place::CandidateInfo>& candidates,
    const cluster::SummarizerConfig& summarizer_config,
    std::map<topo::NodeId, cluster::MicroClusterSummarizer>& summarizers) {
  GEORED_ENSURE(!next.empty(), "cannot adopt an empty placement");
  std::map<topo::NodeId, cluster::MicroClusterSummarizer> fresh;
  for (const auto node : next) {
    fresh.emplace(node, cluster::MicroClusterSummarizer(summarizer_config));
  }
  summarizers = std::move(fresh);
  const std::size_t n = summaries.size();
  if (n == 0) return;
  // nearest_of walks the rows in `next` order with the same strict-`<`
  // first-winner compare and the same per-dimension subtract/square
  // sequence as the historical per-node scan (the operands are swapped, but
  // an IEEE negation squares to the same bits), so the chosen replica is
  // identical (pinned against redistribute_summaries_scalar).
  const PointSet placement_coords = stage_coordinates(candidates, next);
  ArenaScope scope;
  std::size_t* nearest = scope.span<std::size_t>(n);
  parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (summaries[i].count() == 0) continue;
          const Point centroid = summaries[i].centroid();
          nearest[i] = placement_coords.nearest_of(centroid);
        }
      },
      kMinParallelSummaries);
  // Merges stay sequential in summary order: each summarizer's absorb/merge
  // history is order-sensitive, and this is the exact order the historical
  // loop produced.
  for (std::size_t i = 0; i < n; ++i) {
    if (summaries[i].count() == 0) continue;
    summarizers.at(next[nearest[i]]).merge_cluster(summaries[i]);
  }
}

std::unique_ptr<SummaryCollector> make_collector(const std::string& name,
                                                 const CollectorConfig& config) {
  const std::vector<std::string> names = collector_names();  // lint: alloc-ok (registry)
  GEORED_ENSURE(std::find(names.begin(), names.end(), name) != names.end(),
                "unknown collector '" + name +
                    "'; known: direct, hierarchical, decentralized, rpc");
  if (name == "direct") return std::make_unique<DirectCollector>();
  if (name == "rpc") return std::make_unique<net::RpcCollector>(config.rpc, config.rpc_clock);
  GEORED_ENSURE(config.simulator != nullptr && config.network != nullptr,
                "the '" + name +
                    "' collector runs over a simulated network; CollectorConfig "
                    "must provide simulator and network");
  if (name == "hierarchical") {
    return std::make_unique<HierarchicalCollector>(*config.simulator, *config.network,
                                                   config.aggregation_root);
  }
  return std::make_unique<DecentralizedCollector>(*config.simulator, *config.network);
}

std::vector<std::string> collector_names() {  // lint: alloc-ok (registry)
  return {"direct", "hierarchical", "decentralized", "rpc"};
}

}  // namespace geored::core
