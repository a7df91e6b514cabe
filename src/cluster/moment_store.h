// Flat structure-of-arrays storage for micro-cluster moments.
//
// The scalar summarizer (reference/summarizer_scalar.h) keeps one MicroCluster object
// per cluster: every absorb allocates two temporary Points (the component
// squares and the refreshed centroid) and every absorb test recomputes the
// rms stddev — two sqrt-free passes over the moments — from scratch. At
// ingest rates of millions of accesses that is the dominant cost of the
// whole pipeline (paper §III-B runs once per access).
//
// MomentStore keeps the same four moments in contiguous per-field buffers
// (counts / weights / sums / sum2s) beside the centroid PointSet, plus a
// cached absorb radius per cluster:
//
//   radius(i) = max(min_absorb_radius, radius_factor * rms_stddev(i))
//
// recomputed lazily and invalidated only when row i mutates (absorb, merge,
// decay). The absorb test is then one fused kernel — nearest centroid scan
// plus a cached-radius compare — with no allocation on the hot path. The
// merge candidates come from closest_pair(), which refreshes only the rows
// whose centroid moved instead of rescanning every pair on each spawn.
//
// Every update mirrors the exact floating-point operation sequence of
// MicroCluster (absorb/merge/scale/centroid/rms_stddev), so a summarizer
// built on this store is bit-identical to the scalar reference; the
// equivalence suites serialize both and compare bytes.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "cluster/microcluster.h"
#include "common/ensure.h"
#include "common/point_set.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace geored::cluster {

namespace detail {

#if defined(__x86_64__)

/// Stack bound for the SIMD scan's distance buffer; stores larger than this
/// (far beyond any summarizer budget) take the scalar fallback.
inline constexpr std::size_t kMaxSimdScanRows = 64;

/// Squared distance from `q` to each of the n transposed centroid columns,
/// four micro-clusters per 256-bit lane group. Each lane executes the exact
/// scalar sequence diff = c[d] - q[d]; total += diff * diff in ascending d,
/// so every per-row result is bit-identical to PointSet::distance_squared
/// (the target attribute enables AVX2 only — no FMA, so the multiply and
/// add cannot be contracted).
__attribute__((target("avx2"))) inline void distances_avx2(const double* tcols,
                                                           std::size_t stride, std::size_t n,
                                                           std::size_t d_n, const double* q,
                                                           double* dists) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t d = 0; d < d_n; ++d) {
      const __m256d c = _mm256_loadu_pd(tcols + d * stride + i);
      const __m256d diff = _mm256_sub_pd(c, _mm256_set1_pd(q[d]));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
    _mm256_storeu_pd(dists + i, acc);
  }
  for (; i < n; ++i) {
    double total = 0.0;
    for (std::size_t d = 0; d < d_n; ++d) {
      const double diff = tcols[d * stride + i] - q[d];
      total += diff * diff;
    }
    dists[i] = total;
  }
}

/// Sentinel returned by nearest8_avx2 when the in-register argmin cannot
/// prove it matched the scalar scan (a NaN distance); the caller falls back
/// to PointSet::nearest_of for those rows.
inline constexpr std::size_t kScanFallback = static_cast<std::size_t>(-1);

/// Fused nearest scan for stores of at most 8 rows — one micro-cluster per
/// lane across two 256-bit groups, with the argmin kept in registers: a
/// horizontal min reduction followed by an equality mask, whose first set
/// bit is exactly the strict-`<` first winner of the scalar scan (a later
/// row equal to the running best never replaces it, so the winner is the
/// lowest index achieving the minimum). Per-lane distances use the same
/// correctly-rounded subtract/multiply/add sequence as distances_avx2, so
/// both the winning index and the returned squared distance are
/// bit-identical to the scalar scan. NaN distances (only possible from
/// non-finite coordinates) would not survive the min reduction faithfully,
/// so any NaN defers to the scalar scan via kScanFallback.
__attribute__((target("avx2"))) inline std::size_t nearest8_avx2(
    const double* tcols, std::size_t stride, std::size_t n, std::size_t d_n, const double* q,
    double* out_dist) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (std::size_t d = 0; d < d_n; ++d) {
    const __m256d qd = _mm256_set1_pd(q[d]);
    const double* col = tcols + d * stride;
    const __m256d diff0 = _mm256_sub_pd(_mm256_loadu_pd(col), qd);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(diff0, diff0));
    const __m256d diff1 = _mm256_sub_pd(_mm256_loadu_pd(col + 4), qd);
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(diff1, diff1));
  }
  // Lanes >= n hold garbage (the shadow's stride is always >= 8); force
  // them to +inf so they can never win the min. Done before the NaN check
  // so NaN garbage cannot trigger the fallback.
  const __m256d nv = _mm256_set1_pd(static_cast<double>(n));
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  acc0 = _mm256_blendv_pd(inf, acc0,
                          _mm256_cmp_pd(_mm256_setr_pd(0.0, 1.0, 2.0, 3.0), nv, _CMP_LT_OQ));
  acc1 = _mm256_blendv_pd(inf, acc1,
                          _mm256_cmp_pd(_mm256_setr_pd(4.0, 5.0, 6.0, 7.0), nv, _CMP_LT_OQ));
  const int nan_mask = _mm256_movemask_pd(_mm256_cmp_pd(acc0, acc0, _CMP_UNORD_Q)) |
                       _mm256_movemask_pd(_mm256_cmp_pd(acc1, acc1, _CMP_UNORD_Q));
  if (nan_mask != 0) return kScanFallback;
  // Horizontal min, broadcast to every lane of m.
  __m256d m = _mm256_min_pd(acc0, acc1);
  m = _mm256_min_pd(m, _mm256_permute2f128_pd(m, m, 1));
  m = _mm256_min_pd(m, _mm256_shuffle_pd(m, m, 0b0101));
  const int eq = _mm256_movemask_pd(_mm256_cmp_pd(acc0, m, _CMP_EQ_OQ)) |
                 (_mm256_movemask_pd(_mm256_cmp_pd(acc1, m, _CMP_EQ_OQ)) << 4);
  // NaN-free, so some lane equals the min. A padding lane can only match
  // when the min itself is +inf, and lane 0 is real and +inf in that case,
  // so the first set bit is always a real row — matching the scalar scan's
  // best = 0 when nothing beats infinity.
  *out_dist = _mm256_cvtsd_f64(m);
  return static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(eq)));
}

#endif  // defined(__x86_64__)

/// Debug mirror of the MicroCluster moments_consistent check, over raw rows.
inline bool moment_row_consistent(std::uint64_t count, double weight, const double* sum,
                                  const double* sum2, std::size_t dim) {
  if (!std::isfinite(weight) || weight < 0.0) return false;
  const auto n = static_cast<double>(count);
  for (std::size_t d = 0; d < dim; ++d) {
    if (!std::isfinite(sum[d]) || !std::isfinite(sum2[d])) return false;
    const double lhs = n * sum2[d];
    const double rhs = sum[d] * sum[d];
    if (lhs < rhs - 1e-6 * std::max(1.0, rhs)) return false;
  }
  return true;
}

}  // namespace detail

class MomentStore {
 public:
  /// `min_absorb_radius` and `radius_factor` parameterize the cached radius
  /// (SummarizerConfig semantics).
  MomentStore(double min_absorb_radius, double radius_factor);

  std::size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }
  bool avx2() const { return avx2_; }
  std::size_t dim() const { return sums_.dim(); }

  std::uint64_t count(std::size_t i) const { return counts_[i]; }
  double weight(std::size_t i) const { return weights_[i]; }
  const PointSet& centroids() const { return centroids_; }

  void reserve(std::size_t clusters);
  /// Full reset, including the adopted dimension.
  void clear();

  /// Appends a singleton cluster (count 1) from one access at `coords`.
  void append_singleton(const double* coords, std::size_t dim, double weight);

  /// Appends a row from an existing cluster's moments (merge_cluster /
  /// checkpoint restore). Requires cluster.count() > 0.
  void append_moments(const MicroCluster& cluster);

  /// The fused absorb kernel: nearest centroid by squared distance (the
  /// nearest_of scan: strict `<`, first winner), then the paper's
  /// absorb-or-spawn test against the cached radius. On success the access
  /// is absorbed into the winning row (exact MicroCluster::absorb operation
  /// order) and true is returned; on failure the store is untouched.
  /// Requires a non-empty store and `dim()` components at `coords`.
  ///
  /// Defined inline (like radius below) so the per-access ingest loop in the
  /// summarizer compiles to one flat kernel with no cross-TU calls.
  bool try_absorb(const double* coords, double weight) {
    GEORED_CHECK(!empty(), "try_absorb on an empty store");
    double dist_sq = 0.0;
    const std::size_t nearest = nearest_centroid(coords, &dist_sq);
    // Floor fast path: the absorb radius is max(min_absorb_radius, scaled
    // stddev) >= min_absorb_radius, so an access provably inside the
    // constant floor absorbs without looking at the moments at all — the
    // rms-stddev recompute (the cached radius rarely survives: a successful
    // absorb invalidates the very row the next same-site access queries) is
    // skipped entirely, and the cache entry would be invalidated by this
    // absorb anyway. The squared comparison is guarded conservatively: only
    // distances outside the combined rounding margin of floor*floor and
    // sqrt take the shortcut, so the decision matches the scalar
    // `sqrt(dist_sq) <= radius` bit for bit.
    const double ff = min_absorb_radius_ * min_absorb_radius_;
    if (dist_sq <= ff * (1.0 - 1e-10) - 1e-12) {
      absorb_into(nearest, coords, weight);
      return true;
    }
    const double r = radius(nearest);
    // Same squared-space idea against the full radius: outside the guard
    // band the squared comparison provably agrees with the exact one (sqrt
    // is monotone and correctly rounded, so one part in 1e10 dominates the
    // combined rounding of r*r and sqrt); inside it the reference
    // comparison runs verbatim. NaN distances fail both pretests and the
    // exact fallback, spawning a new cluster exactly like the reference.
    const double rr = r * r;
    bool within;
    if (dist_sq <= rr * (1.0 - 1e-10) - 1e-12) {
      within = true;
    } else if (dist_sq > rr * (1.0 + 1e-10) + 1e-12) {
      within = false;
    } else {
      within = std::sqrt(dist_sq) <= r;
    }
    if (!within) return false;
    absorb_into(nearest, coords, weight);
    return true;
  }

  /// The closest pair of rows by centroid distance (merge candidates):
  /// bit-identical to centroids().pairwise_min_distance() — the strict-`<`
  /// lexicographic first winner over all pairs a < b, NaN never winning —
  /// without rescanning every pair. Stores of at most kTileScanRows rows
  /// run one all-pairs scan (a register tile over the transposed shadow
  /// with avx2() on, the scalar double loop otherwise); larger stores keep
  /// a forward-nearest cache (see
  /// fwd_dist_) and refresh only the rows whose centroid moved since the
  /// last call. Non-const because it settles that cache; callers are the
  /// add/merge paths, which already own the store exclusively. Requires at
  /// least two rows.
  std::pair<std::size_t, std::size_t> closest_pair();

  /// Row count up to which closest_pair() runs an all-pairs scan instead
  /// of the forward-nearest cache: at these sizes the cache's
  /// bookkeeping costs as much as the pairs it saves.
  static constexpr std::size_t kTileScanRows = 16;

  /// Merges row `b`'s moments into row `a` (exact MicroCluster::merge order)
  /// and erases row `b`. Requires a != b.
  void merge_rows(std::size_t a, std::size_t b);

  /// MicroCluster::scale(factor) applied to every row in order, dropping
  /// rows whose count rounds to zero — the decay step. Invalidates every
  /// cached radius.
  void scale_all(double factor);

  /// Absorb radius of row i, recomputed from the moments if the cached
  /// value was invalidated by a mutation.
  double radius(std::size_t i) const {
    GEORED_CHECK(i < size(), "radius row out of range");
    double cached = radii_[i];
    if (cached >= 0.0) return cached;
    // MicroCluster::rms_stddev on the flat row, then the paper's radius
    // rule. The centroid row already holds sum[d] / n bit for bit — every
    // mutation path ends in refresh_centroid or writes the same division —
    // so the mean is read back instead of re-divided.
    const auto n = static_cast<double>(counts_[i]);
    const double* sum2 = sum2s_.row(i);
    const double* centroid = centroids_.row(i);
    const std::size_t d_n = dim();
    double total_variance = 0.0;
    for (std::size_t d = 0; d < d_n; ++d) {
      const double mean = centroid[d];
      const double variance = std::max(0.0, sum2[d] / n - mean * mean);
      total_variance += variance;
    }
    cached = std::max(min_absorb_radius_, radius_factor_ * std::sqrt(total_variance));
    radii_[i] = cached;
    return cached;
  }

  /// Whether row i's radius is currently cached (tests pin the invalidation
  /// contract with this).
  bool radius_cached(std::size_t i) const { return radii_[i] >= 0.0; }

  /// Index of the centroid nearest to `coords` plus its squared distance —
  /// the scan inside try_absorb, exposed so tests can compare it against
  /// PointSet::nearest_of directly. Bit-identical to that scan: with avx2()
  /// on it runs one micro-cluster per SIMD lane over the transposed
  /// centroid shadow (each lane executes the exact per-dimension subtract /
  /// multiply / accumulate sequence of the scalar kernel, and the argmin
  /// over the finished distances is the same strict-`<` first-winner loop),
  /// elsewhere it falls back to the scalar scan.
  std::size_t nearest_centroid(const double* coords, double* dist_sq) const {
#if defined(__x86_64__)
    const std::size_t n = size();
    if (avx2_ && n >= 4 && n <= 8) {
      // Typical summarizer budgets fit one lane pair: the whole scan —
      // distances and argmin — stays in registers.
      double best_dist = 0.0;
      const std::size_t best =
          detail::nearest8_avx2(centroids_t_.data(), t_stride_, n, dim(), coords, &best_dist);
      if (best != detail::kScanFallback) {
        GEORED_DCHECK(
            [&] {
              double ref_dist = 0.0;
              const std::size_t ref = centroids_.nearest_of(coords, &ref_dist);
              return ref == best && ref_dist == best_dist;
            }(),
            "in-register SIMD nearest scan diverged from PointSet::nearest_of");
        if (dist_sq != nullptr) *dist_sq = best_dist;
        return best;
      }
      return centroids_.nearest_of(coords, dist_sq);
    }
    if (avx2_ && n > 8 && n <= detail::kMaxSimdScanRows) {
      double dists[detail::kMaxSimdScanRows];
      detail::distances_avx2(centroids_t_.data(), t_stride_, n, dim(), coords, dists);
      // The same strict-`<` first-winner argmin as PointSet::nearest_of,
      // over bit-identical distances.
      std::size_t best = 0;
      double best_dist = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const bool better = dists[i] < best_dist;
        best = better ? i : best;
        best_dist = better ? dists[i] : best_dist;
      }
      GEORED_DCHECK(
          [&] {
            double ref_dist = 0.0;
            const std::size_t ref = centroids_.nearest_of(coords, &ref_dist);
            return ref == best && ref_dist == best_dist;
          }(),
          "transposed SIMD nearest scan diverged from PointSet::nearest_of");
      if (dist_sq != nullptr) *dist_sq = best_dist;
      return best;
    }
#endif
    return centroids_.nearest_of(coords, dist_sq);
  }

  /// Materializes row i back into the wire/API representation; moments are
  /// copied bit for bit.
  MicroCluster cluster(std::size_t i) const;

 private:
  /// MicroCluster::absorb on the flat rows — the shared tail of both
  /// try_absorb accept paths. With avx2() on, the moment updates and the
  /// centroid refresh run fused, four dimensions per lane group; every lane
  /// op (vaddpd / vmulpd / vdivpd) is the correctly-rounded IEEE operation
  /// the scalar loop performs on that component, so the stored moments are
  /// bit-identical either way.
  void absorb_into(std::size_t i, const double* coords, double weight) {
#if defined(__x86_64__)
    if (avx2_) {
      absorb_into_avx2(i, coords, weight);
      return;
    }
#endif
    const std::size_t d_n = dim();
    ++counts_[i];
    weights_[i] += weight;
    double* sum = sums_.mutable_row(i);
    double* sum2 = sum2s_.mutable_row(i);
    for (std::size_t d = 0; d < d_n; ++d) sum[d] += coords[d];
    for (std::size_t d = 0; d < d_n; ++d) sum2[d] += coords[d] * coords[d];
    refresh_centroid(i);
    radii_[i] = -1.0;
    GEORED_DCHECK(detail::moment_row_consistent(counts_[i], weights_[i], sums_.row(i),
                                                sum2s_.row(i), d_n),
                  "moment row inconsistent after absorb");
  }

#if defined(__x86_64__)
  /// AVX2 body of absorb_into: same per-component operations in the same
  /// per-component order (sum += c, then sum2 += c*c, then centroid =
  /// sum / n — components are independent, so lane grouping cannot change
  /// any result). The target attribute enables AVX2 only, keeping FMA
  /// contraction impossible.
  __attribute__((target("avx2"))) void absorb_into_avx2(std::size_t i, const double* coords,
                                                        double weight) {
    const std::size_t d_n = dim();
    ++counts_[i];
    weights_[i] += weight;
    double* sum = sums_.mutable_row(i);
    double* sum2 = sum2s_.mutable_row(i);
    double* centroid = centroids_.mutable_row(i);
    double* tcol = centroids_t_.data() + i;
    const __m256d vn = _mm256_set1_pd(static_cast<double>(counts_[i]));
    std::size_t d = 0;
    for (; d + 4 <= d_n; d += 4) {
      const __m256d c = _mm256_loadu_pd(coords + d);
      const __m256d s = _mm256_add_pd(_mm256_loadu_pd(sum + d), c);
      _mm256_storeu_pd(sum + d, s);
      const __m256d s2 = _mm256_add_pd(_mm256_loadu_pd(sum2 + d), _mm256_mul_pd(c, c));
      _mm256_storeu_pd(sum2 + d, s2);
      const __m256d cent = _mm256_div_pd(s, vn);
      _mm256_storeu_pd(centroid + d, cent);
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, cent);
      tcol[(d + 0) * t_stride_] = lanes[0];
      tcol[(d + 1) * t_stride_] = lanes[1];
      tcol[(d + 2) * t_stride_] = lanes[2];
      tcol[(d + 3) * t_stride_] = lanes[3];
    }
    const double n = static_cast<double>(counts_[i]);
    for (; d < d_n; ++d) {
      const double c = coords[d];
      sum[d] += c;
      sum2[d] += c * c;
      const double value = sum[d] / n;
      centroid[d] = value;
      tcol[d * t_stride_] = value;
    }
    radii_[i] = -1.0;
    pair_state_[i] = kPairDirty;
    GEORED_DCHECK(detail::moment_row_consistent(counts_[i], weights_[i], sums_.row(i),
                                                sum2s_.row(i), d_n),
                  "moment row inconsistent after absorb");
  }
#endif

  /// Rewrites centroid row i as sums[i] / count[i] (the exact division
  /// sequence of MicroCluster::centroid). Every mutation ends here, which
  /// is what lets radius() read the mean back out of the centroid row.
  void refresh_centroid(std::size_t i) {
    pair_state_[i] = kPairDirty;
    const auto n = static_cast<double>(counts_[i]);
    const double* sum = sums_.row(i);
    double* centroid = centroids_.mutable_row(i);
    double* tcol = centroids_t_.data() + i;
    const std::size_t d_n = dim();
    for (std::size_t d = 0; d < d_n; ++d) {
      const double value = sum[d] / n;
      centroid[d] = value;
      tcol[d * t_stride_] = value;
    }
  }

  /// Per-row bookkeeping for a row just appended to the moment buffers:
  /// an invalidated radius, a dirty closest-pair state, and its column in
  /// the transposed shadow.
  void push_row_state();
  /// Grows the transposed shadow (and rebuilds it from the centroid rows)
  /// so column `rows - 1` is addressable, then keeps both layouts in sync.
  void ensure_transposed(std::size_t rows);
  /// Rebuilds the transposed shadow from the centroid rows after it grows.
  void rebuild_transposed();

  /// Squared distances from centroid row `q` to rows [begin, size()),
  /// written to out[begin..size()): the transposed-shadow kernel with
  /// avx2() on, PointSet::distance_squared otherwise. Both run the same
  /// per-dimension sequence, and (x - y)^2 == (y - x)^2 exactly, so every
  /// value equals the one pairwise_min_distance computes for that pair.
  void row_distances(std::size_t q, std::size_t begin, double* out) const;
  /// Brings every forward-nearest entry up to date: dirty rows first (one
  /// full distance row each, which also settles the entries of earlier
  /// rows against them), then stale rows (a suffix rescan each).
  void settle_pair_cache();
  /// Sets row a's forward-nearest entry to the strict-`<` first winner of
  /// dists[a + 1..size()) and marks the row clean.
  void take_forward_winner(std::size_t a, const double* dists);

  /// Reused per-append staging row (component squares, initial centroid) so
  /// spawning a cluster does not allocate once warmed up.
  double* sum2_scratch(std::size_t dim) {
    scratch_.resize(dim);
    return scratch_.data();
  }

  double min_absorb_radius_;
  double radius_factor_;
  /// AVX2 kernels on or off: the one SIMD switch, read once per store.
  bool avx2_ = simd::active_level() >= simd::Level::kAvx2;
  std::vector<std::uint64_t> counts_;
  std::vector<double> weights_;
  PointSet sums_;
  PointSet sum2s_;
  PointSet centroids_;
  /// Cached radius per row; negative = invalidated (every real radius is
  /// >= min_absorb_radius >= 0).
  mutable std::vector<double> radii_;
  /// Column-major (dimension-major) shadow of centroids_: component d of
  /// row i lives at [d * t_stride_ + i]. This is the layout the lane-per-
  /// cluster SIMD nearest scan consumes; kept in sync by refresh_centroid
  /// and the append/erase paths. t_stride_ >= size() always.
  std::vector<double> centroids_t_;
  std::size_t t_stride_ = 0;
  std::vector<double> scratch_;

  // Forward-nearest cache behind closest_pair() on stores larger than
  // kTileScanRows. Invariant for every clean row a (pair_state_ ==
  // kPairClean): fwd_dist_[a] / fwd_arg_[a] is the strict-`<` first winner
  // of d(a, b) over b > a, starting from +inf (so +inf and NaN never win
  // and fwd_arg_ is meaningless while fwd_dist_ is +inf). A strict-`<` scan
  // over fwd_dist_ then picks the same lexicographic first pair as the
  // all-pairs double loop. Every mutation keeps the states honest, so the
  // all-pairs regime leaves pending work behind, never wrong entries.
  static constexpr std::uint8_t kPairClean = 0;
  /// The row's forward entry is out of date (its partner moved away or was
  /// erased): rescan its suffix.
  static constexpr std::uint8_t kPairStale = 1;
  /// The row's centroid changed: recompute its whole distance row.
  static constexpr std::uint8_t kPairDirty = 2;
  std::vector<std::uint8_t> pair_state_;
  std::vector<double> fwd_dist_;
  std::vector<std::size_t> fwd_arg_;
  /// Reused distance row for settle_pair_cache.
  std::vector<double> pair_dists_;
};

}  // namespace geored::cluster
