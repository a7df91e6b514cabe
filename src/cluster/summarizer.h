// Online per-replica summarization of client coordinates (paper §III-B).
//
// Each replica server owns one MicroClusterSummarizer. On every client
// access the summarizer finds the micro-cluster whose centroid is closest to
// the client's coordinates; if the client falls within that cluster's
// standard deviation it is absorbed, otherwise a new cluster is created and,
// if the budget m is exceeded, the two closest clusters are merged.
// Memory is O(m * dim) regardless of how many accesses are summarized.
//
// Storage is the flat MomentStore (cluster/moment_store.h): moments live in
// contiguous per-field buffers with a cached absorb radius per cluster, so
// the per-access hot path is one fused nearest+radius kernel with no
// allocation. Results are bit-identical to the retained scalar reference
// (reference/summarizer_scalar.h); the IngestEquivalence suite compares
// serialized bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/microcluster.h"
#include "cluster/moment_store.h"
#include "common/point.h"
#include "common/point_set.h"
#include "common/serialize.h"

namespace geored::cluster {

/// Serializes a bare micro-cluster set in the summarizer wire format (u32
/// count + clusters) — the per-source message of Algorithm 1. Shared by
/// every collection path so the formats cannot drift apart.
void write_clusters(ByteWriter& writer, const std::vector<MicroCluster>& clusters);

/// Wire size of write_clusters(clusters) in bytes.
std::size_t serialized_size(const std::vector<MicroCluster>& clusters);

struct SummarizerConfig {
  /// Maximum number of micro-clusters retained (the paper's m).
  std::size_t max_clusters = 4;
  /// Radius granted to clusters whose variance is still degenerate (e.g.
  /// singletons, whose stddev is zero): a client closer than this is
  /// absorbed rather than spawning a new cluster. Milliseconds of
  /// coordinate-space distance.
  double min_absorb_radius = 5.0;
  /// Multiplier on the cluster stddev for the absorb test (1.0 = the paper's
  /// "within the standard deviation").
  double radius_factor = 1.0;
  /// Decay applied by decay() to counts and weights, implementing the
  /// "recent accesses" emphasis between placement epochs.
  double epoch_decay = 0.5;
};

class MicroClusterSummarizer {
 public:
  explicit MicroClusterSummarizer(const SummarizerConfig& config = {});

  /// Records one access by a client at `coords` transferring `weight` units
  /// of data (e.g. bytes, normalized). Weights must be finite and
  /// non-negative.
  void add(const Point& coords, double weight = 1.0);

  /// Records a batch of accesses: row i of `coords` with weights[i] (or 1.0
  /// for every row when `weights` is empty). Equivalent to calling add()
  /// per row in order — batching only amortizes the call overhead, it never
  /// changes the result. Weights are validated before any row is ingested,
  /// so a non-finite or negative weight rejects the whole batch.
  void add_batch(const PointSet& coords, std::span<const double> weights = {});

  /// Inserts a whole micro-cluster (e.g. one inherited from a replica that
  /// is being retired). The cluster is kept intact; if the budget m is
  /// exceeded the two closest clusters are merged, as in add().
  void merge_cluster(const MicroCluster& cluster);

  /// Materialized view of the current micro-clusters. Rebuilt lazily from
  /// the flat store after mutations; moments are copied bit for bit.
  const std::vector<MicroCluster>& clusters() const;

  /// Total accesses summarized since construction or the last clear().
  std::uint64_t total_count() const { return total_count_; }

  /// How accesses since construction or the last clear() were handled:
  /// absorbed into the nearest micro-cluster, or spawned a new one (every
  /// access does exactly one of the two); and how many over-budget merges
  /// of the closest pair followed, from spawns or merge_cluster. Plain
  /// deterministic counters — not part of the wire format.
  std::uint64_t absorbed() const { return absorbed_; }
  std::uint64_t spawned() const { return spawned_; }
  std::uint64_t merged() const { return merged_; }

  /// Exponentially decays all cluster counts/weights (see
  /// SummarizerConfig::epoch_decay); clusters decayed below one access are
  /// dropped. Called at placement-epoch boundaries so old populations fade.
  void decay();

  void clear();

  /// Serializes all clusters (the per-replica message of Algorithm 1).
  void serialize(ByteWriter& writer) const;

  /// Decodes a write_clusters frame. Hardened against hostile bytes: a
  /// truncated buffer, a cluster count that cannot fit in the remaining
  /// bytes, or moment values no serialize() could emit all throw
  /// geored::WireFormatError — real-transport collectors (src/net/) rely on
  /// corrupt frames failing typed here rather than propagating garbage.
  static std::vector<MicroCluster> deserialize_clusters(ByteReader& reader);

  /// The underlying flat moment store — exposed so tests can pin the radius
  /// cache invalidation contract.
  const MomentStore& store() const { return store_; }

 private:
  void add_row(const double* coords, std::size_t dim, double weight);
  /// The absorb-or-spawn core shared by add_row and add_batch, after the
  /// caller has validated the weight and handled the empty-store bootstrap.
  void ingest_row(const double* coords, std::size_t dim, double weight);
  /// Merges the closest pair of micro-clusters when the store exceeds the
  /// budget m (after a spawn or merge_cluster).
  void merge_over_budget();
#if defined(__x86_64__)
  /// ingest_row over rows [begin, n) of a batch, compiled as one AVX2
  /// function. GCC cannot inline a target("avx2") callee into a baseline
  /// caller, so dispatching per access would pay two opaque calls (nearest
  /// scan + absorb tail) per row; hoisting the target attribute to the
  /// whole batch loop lets the fused kernel inline flat. Same operations,
  /// same results — the equivalence suites pin this path against the
  /// scalar loop (GEORED_SIMD=scalar selects the latter).
  __attribute__((target("avx2"))) void ingest_batch_avx2(const PointSet& coords,
                                                         std::span<const double> weights,
                                                         std::size_t begin);
#endif

  SummarizerConfig config_;
  MomentStore store_;
  /// Lazily materialized clusters() view; invalidated by every mutation.
  mutable std::vector<MicroCluster> clusters_cache_;
  mutable bool cache_valid_ = false;
  std::uint64_t total_count_ = 0;
  std::uint64_t absorbed_ = 0;
  std::uint64_t spawned_ = 0;
  std::uint64_t merged_ = 0;
};

}  // namespace geored::cluster
