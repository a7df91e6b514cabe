#include "cluster/moment_store.h"

#include <algorithm>
#include <cmath>

#include "common/ensure.h"

namespace geored::cluster {

namespace {

/// Tail padding of the transposed shadow, in doubles: the tile scan loads
/// whole four-lane groups starting at any column, so its last dimension
/// may read up to three columns past the shadow's final stride.
constexpr std::size_t kShadowPad = 4;

constexpr double kInf = std::numeric_limits<double>::infinity();

#if defined(__x86_64__)

/// One row of the register-tile scan: squared distances from `q` to the
/// 4*G transposed columns starting at `tcols`, with lanes at or past
/// `count` and NaN lanes forced to +inf. Neither could win a strict-`<`
/// scan that starts from +inf, so the substitution never changes the
/// winner. Each lane runs the scalar subtract / multiply / accumulate
/// sequence in ascending dimension (AVX2 only, no FMA), so every real lane
/// is bit-identical to PointSet::distance_squared.
template <std::size_t G>
__attribute__((target("avx2"), always_inline)) inline void tile_row_avx2(
    const double* tcols, std::size_t stride, std::size_t d_n, const double* q,
    std::size_t count, __m256d* out) {
  __m256d acc[G];
  for (std::size_t g = 0; g < G; ++g) acc[g] = _mm256_setzero_pd();
  for (std::size_t d = 0; d < d_n; ++d) {
    const __m256d qd = _mm256_set1_pd(q[d]);
    const double* col = tcols + d * stride;
    for (std::size_t g = 0; g < G; ++g) {
      const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(col + 4 * g), qd);
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(diff, diff));
    }
  }
  const __m256d cnt = _mm256_set1_pd(static_cast<double>(count));
  const __m256d inf = _mm256_set1_pd(kInf);
  for (std::size_t g = 0; g < G; ++g) {
    const auto base = static_cast<double>(4 * g);
    const __m256d idx = _mm256_setr_pd(base, base + 1.0, base + 2.0, base + 3.0);
    const __m256d valid = _mm256_and_pd(_mm256_cmp_pd(idx, cnt, _CMP_LT_OQ),
                                        _mm256_cmp_pd(acc[g], acc[g], _CMP_ORD_Q));
    out[g] = _mm256_blendv_pd(inf, acc[g], valid);
  }
}

/// All-pairs closest pair for stores of at most MomentStore::kTileScanRows
/// rows. Row a's suffix a+1..n-1 is at most four lane groups, scanned in
/// registers; its minimum is kept only when it is strictly below the best
/// so far, and the winning column is the first lane equal to it — the
/// strict-`<` lexicographic first winner of the scalar double loop.
__attribute__((target("avx2"))) std::pair<std::size_t, std::size_t> closest_pair_tile_avx2(
    const double* tcols, std::size_t stride, const PointSet& centroids) {
  const std::size_t n = centroids.size();
  const std::size_t d_n = centroids.dim();
  std::size_t best_a = 0, best_b = 1;
  double best = kInf;
  for (std::size_t a = 0; a + 1 < n; ++a) {
    const std::size_t count = n - a - 1;
    const std::size_t groups = (count + 3) / 4;
    const double* first = tcols + a + 1;
    const double* q = centroids.row(a);
    __m256d v[4];
    switch (groups) {
      case 1:
        tile_row_avx2<1>(first, stride, d_n, q, count, v);
        break;
      case 2:
        tile_row_avx2<2>(first, stride, d_n, q, count, v);
        break;
      case 3:
        tile_row_avx2<3>(first, stride, d_n, q, count, v);
        break;
      default:
        tile_row_avx2<4>(first, stride, d_n, q, count, v);
        break;
    }
    __m256d m = v[0];
    for (std::size_t g = 1; g < groups; ++g) m = _mm256_min_pd(m, v[g]);
    m = _mm256_min_pd(m, _mm256_permute2f128_pd(m, m, 1));
    m = _mm256_min_pd(m, _mm256_shuffle_pd(m, m, 0b0101));
    const double row_min = _mm256_cvtsd_f64(m);
    if (!(row_min < best)) continue;
    best = row_min;
    best_a = a;
    for (std::size_t g = 0; g < groups; ++g) {
      const int eq = _mm256_movemask_pd(_mm256_cmp_pd(v[g], m, _CMP_EQ_OQ));
      if (eq != 0) {
        const auto lane = static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(eq)));
        best_b = a + 1 + 4 * g + lane;
        break;
      }
    }
  }
  return {best_a, best_b};
}

#endif  // defined(__x86_64__)

/// The same all-pairs scan without vector lanes, for small stores with
/// avx2() off: the strict-`<` scalar double loop over the row-major
/// centroids, which at these sizes is cheaper than the cache bookkeeping.
std::pair<std::size_t, std::size_t> closest_pair_scalar(const PointSet& centroids) {
  const std::size_t n = centroids.size();
  std::size_t best_a = 0, best_b = 1;
  double best = kInf;
  for (std::size_t a = 0; a + 1 < n; ++a) {
    const double* row_a = centroids.row(a);
    for (std::size_t b = a + 1; b < n; ++b) {
      const double dist = centroids.distance_squared(b, row_a);
      if (dist < best) {
        best = dist;
        best_a = a;
        best_b = b;
      }
    }
  }
  return {best_a, best_b};
}

}  // namespace

void MomentStore::ensure_transposed(std::size_t rows) {
  if (rows > t_stride_) {
    t_stride_ = std::max<std::size_t>(8, 2 * rows);
    rebuild_transposed();
    return;
  }
  const std::size_t i = rows - 1;
  const double* centroid = centroids_.row(i);
  const std::size_t d_n = dim();
  for (std::size_t d = 0; d < d_n; ++d) centroids_t_[d * t_stride_ + i] = centroid[d];
}

void MomentStore::rebuild_transposed() {
  const std::size_t d_n = dim();
  centroids_t_.assign(d_n * t_stride_ + kShadowPad, 0.0);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const double* centroid = centroids_.row(i);
    for (std::size_t d = 0; d < d_n; ++d) centroids_t_[d * t_stride_ + i] = centroid[d];
  }
}

MomentStore::MomentStore(double min_absorb_radius, double radius_factor)
    : min_absorb_radius_(min_absorb_radius), radius_factor_(radius_factor) {
  GEORED_ENSURE(min_absorb_radius >= 0.0, "min_absorb_radius must be non-negative");
  GEORED_ENSURE(radius_factor > 0.0, "radius_factor must be positive");
}

void MomentStore::reserve(std::size_t clusters) {
  counts_.reserve(clusters);
  weights_.reserve(clusters);
  sums_.reserve(clusters);
  sum2s_.reserve(clusters);
  centroids_.reserve(clusters);
  radii_.reserve(clusters);
  pair_state_.reserve(clusters);
  fwd_dist_.reserve(clusters);
  fwd_arg_.reserve(clusters);
  pair_dists_.reserve(clusters);
}

void MomentStore::clear() {
  counts_.clear();
  weights_.clear();
  // Fresh sets so a new stream may change dimension (scalar clear semantics).
  sums_ = PointSet();
  sum2s_ = PointSet();
  centroids_ = PointSet();
  radii_.clear();
  centroids_t_.clear();
  t_stride_ = 0;
  pair_state_.clear();
  fwd_dist_.clear();
  fwd_arg_.clear();
}

void MomentStore::push_row_state() {
  radii_.push_back(-1.0);
  pair_state_.push_back(kPairDirty);
  fwd_dist_.push_back(kInf);
  fwd_arg_.push_back(size());
  ensure_transposed(size());
}

void MomentStore::append_singleton(const double* coords, std::size_t dim, double weight) {
  counts_.push_back(1);
  weights_.push_back(weight);
  sums_.push_back_row(coords, dim);
  // sum2 of a singleton: component squares, the MicroCluster constructor's
  // coords.component_squares() per-dimension product.
  {
    double* scratch = sum2_scratch(dim);
    for (std::size_t d = 0; d < dim; ++d) scratch[d] = coords[d] * coords[d];
    sum2s_.push_back_row(scratch, dim);
  }
  // centroid = sum / 1 — the exact division MicroCluster::centroid performs.
  {
    double* scratch = sum2_scratch(dim);
    for (std::size_t d = 0; d < dim; ++d) scratch[d] = coords[d] / 1.0;
    centroids_.push_back_row(scratch, dim);
  }
  push_row_state();
  GEORED_DCHECK(detail::moment_row_consistent(1, weight, sums_.row(size() - 1),
                                              sum2s_.row(size() - 1), dim),
                "moment row inconsistent after append_singleton");
}

void MomentStore::append_moments(const MicroCluster& cluster) {
  GEORED_ENSURE(cluster.count() > 0, "append_moments requires a non-empty cluster");
  counts_.push_back(cluster.count());
  weights_.push_back(cluster.weight());
  sums_.push_back(cluster.sum());
  sum2s_.push_back(cluster.sum2());
  centroids_.push_back(cluster.centroid());
  push_row_state();
}

void MomentStore::merge_rows(std::size_t a, std::size_t b) {
  GEORED_CHECK(a < size() && b < size() && a != b, "merge_rows needs two distinct rows");
  const std::size_t d_n = dim();
  counts_[a] += counts_[b];
  weights_[a] += weights_[b];
  double* sum_a = sums_.mutable_row(a);
  double* sum2_a = sum2s_.mutable_row(a);
  const double* sum_b = sums_.row(b);
  const double* sum2_b = sum2s_.row(b);
  for (std::size_t d = 0; d < d_n; ++d) sum_a[d] += sum_b[d];
  for (std::size_t d = 0; d < d_n; ++d) sum2_a[d] += sum2_b[d];
  refresh_centroid(a);
  radii_[a] = -1.0;
  GEORED_DCHECK(detail::moment_row_consistent(counts_[a], weights_[a], sums_.row(a),
                                              sum2s_.row(a), d_n),
                "moment row inconsistent after merge_rows");

  counts_.erase(counts_.begin() + static_cast<std::ptrdiff_t>(b));
  weights_.erase(weights_.begin() + static_cast<std::ptrdiff_t>(b));
  sums_.erase_row(b);
  sum2s_.erase_row(b);
  centroids_.erase_row(b);
  radii_.erase(radii_.begin() + static_cast<std::ptrdiff_t>(b));
  pair_state_.erase(pair_state_.begin() + static_cast<std::ptrdiff_t>(b));
  fwd_dist_.erase(fwd_dist_.begin() + static_cast<std::ptrdiff_t>(b));
  fwd_arg_.erase(fwd_arg_.begin() + static_cast<std::ptrdiff_t>(b));
  const std::size_t n = size();
  // Erasing row b shifts every later column of the shadow left by one.
  for (std::size_t d = 0; d < d_n; ++d) {
    double* col = centroids_t_.data() + d * t_stride_;
    std::copy(col + b + 1, col + n + 1, col + b);
  }
  // Forward partners shift with the rows; a row whose partner was b must
  // find a new one.
  for (std::size_t j = 0; j < n; ++j) {
    if (fwd_arg_[j] == b) {
      if (pair_state_[j] == kPairClean) pair_state_[j] = kPairStale;
    } else if (fwd_arg_[j] > b) {
      --fwd_arg_[j];
    }
  }
}

void MomentStore::scale_all(double factor) {
  GEORED_ENSURE(factor > 0.0 && factor <= 1.0, "scale factor must be in (0,1]");
  const std::size_t d_n = dim();
  std::size_t out = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    // MicroCluster::scale: round the count, then scale the moments by the
    // *realized* ratio so centroid and stddev are exactly preserved.
    const auto new_count =
        static_cast<std::uint64_t>(static_cast<double>(counts_[i]) * factor + 0.5);
    if (new_count == 0) continue;  // decayed below one access: dropped
    const double realized =
        static_cast<double>(new_count) / static_cast<double>(counts_[i]);
    counts_[out] = new_count;
    weights_[out] = weights_[i] * realized;
    double* sum_out = sums_.mutable_row(out);
    double* sum2_out = sum2s_.mutable_row(out);
    const double* sum_in = sums_.row(i);
    const double* sum2_in = sum2s_.row(i);
    for (std::size_t d = 0; d < d_n; ++d) sum_out[d] = sum_in[d] * realized;
    for (std::size_t d = 0; d < d_n; ++d) sum2_out[d] = sum2_in[d] * realized;
    refresh_centroid(out);
    GEORED_DCHECK(detail::moment_row_consistent(counts_[out], weights_[out], sums_.row(out),
                                                sum2s_.row(out), d_n),
                  "moment row inconsistent after scale_all");
    ++out;
  }
  counts_.resize(out);
  weights_.resize(out);
  sums_.truncate(out);
  sum2s_.truncate(out);
  centroids_.truncate(out);
  radii_.assign(out, -1.0);
  // refresh_centroid marked every surviving row dirty, so the next
  // closest_pair() recomputes each of them.
  pair_state_.resize(out);
  fwd_dist_.resize(out);
  fwd_arg_.resize(out);
}

void MomentStore::row_distances(std::size_t q, std::size_t begin, double* out) const {
  const std::size_t n = size();
  if (begin >= n) return;
#if defined(__x86_64__)
  if (avx2_) {
    detail::distances_avx2(centroids_t_.data() + begin, t_stride_, n - begin, dim(),
                           centroids_.row(q), out + begin);
    return;
  }
#endif
  const double* row_q = centroids_.row(q);
  for (std::size_t j = begin; j < n; ++j) out[j] = centroids_.distance_squared(j, row_q);
}

void MomentStore::take_forward_winner(std::size_t a, const double* dists) {
  const std::size_t n = size();
  double best = kInf;
  std::size_t arg = a + 1;
  for (std::size_t b = a + 1; b < n; ++b) {
    const bool better = dists[b] < best;
    arg = better ? b : arg;
    best = better ? dists[b] : best;
  }
  fwd_dist_[a] = best;
  fwd_arg_[a] = arg;
  pair_state_[a] = kPairClean;
}

void MomentStore::settle_pair_cache() {
  const std::size_t n = size();
  pair_dists_.resize(n);
  double* dists = pair_dists_.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (pair_state_[i] != kPairDirty) continue;
    row_distances(i, 0, dists);
    take_forward_winner(i, dists);
    // Pair (j, i) moved for every earlier row j. Dirty rows before i are
    // already settled (this update is then a no-op) and stale rows are
    // rescanned below, so only clean entries need the update. Every other
    // candidate of a clean row ranks behind its cached winner in
    // (distance, index) order, so the winner changes only if i beats it —
    // or, when i was the winner, is unknown once i moved farther (or NaN).
    for (std::size_t j = 0; j < i; ++j) {
      if (pair_state_[j] != kPairClean) continue;
      const double d = dists[j];
      if (fwd_arg_[j] == i) {
        if (d <= fwd_dist_[j]) {
          fwd_dist_[j] = d;
        } else {
          pair_state_[j] = kPairStale;
        }
      } else if (d < fwd_dist_[j] || (d == fwd_dist_[j] && i < fwd_arg_[j])) {
        fwd_dist_[j] = d;
        fwd_arg_[j] = i;
      }
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    if (pair_state_[a] != kPairStale) continue;
    row_distances(a, a + 1, dists);
    take_forward_winner(a, dists);
  }
}

std::pair<std::size_t, std::size_t> MomentStore::closest_pair() {
  const std::size_t n = size();
  GEORED_CHECK(n >= 2, "closest_pair requires at least two rows");
  if (n <= kTileScanRows) {
#if defined(__x86_64__)
    if (avx2_) return closest_pair_tile_avx2(centroids_t_.data(), t_stride_, centroids_);
#endif
    return closest_pair_scalar(centroids_);
  }
  settle_pair_cache();
  std::size_t best_a = 0;
  double best = kInf;
  for (std::size_t a = 0; a + 1 < n; ++a) {
    const bool better = fwd_dist_[a] < best;
    best_a = better ? a : best_a;
    best = better ? fwd_dist_[a] : best;
  }
  return {best_a, best < kInf ? fwd_arg_[best_a] : 1};
}

MicroCluster MomentStore::cluster(std::size_t i) const {
  GEORED_CHECK(i < size(), "cluster row out of range");
  return MicroCluster::from_moments(counts_[i], weights_[i], sums_.point(i), sum2s_.point(i));
}

}  // namespace geored::cluster
