// MomentStoreClosestPair: MomentStore::closest_pair() keeps a forward-
// nearest cache (and, for small stores, a register-tile scan) instead of
// rescanning every centroid pair on each spawn. Whatever it keeps, the
// answer must be exactly PointSet::pairwise_min_distance() on the current
// centroids — the strict-`<` lexicographic first pair. These sweeps drive
// the store through the summarizer's own mutation sequence (absorb, spawn,
// merge the closest pair) plus the side paths that disturb the cache —
// merge_cluster, checkpoint-style restore, decay that drops rows — and
// compare the two answers after every spawn. The coordinate modes force
// exact distance ties (integer grid), zero distances (duplicates) and
// non-finite distances. Runs under every SIMD level via the simd_scalar.* /
// simd_avx2.* ctest entries, and under tsan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "cluster/microcluster.h"
#include "cluster/moment_store.h"
#include "common/ensure.h"
#include "common/point.h"
#include "common/random.h"

namespace geored::cluster {
namespace {

enum class CoordMode { kContinuous, kIntegerGrid, kNonFinite };

const char* mode_name(CoordMode mode) {
  switch (mode) {
    case CoordMode::kContinuous:
      return "continuous";
    case CoordMode::kIntegerGrid:
      return "integer-grid";
    case CoordMode::kNonFinite:
      return "non-finite";
  }
  return "?";
}

/// Budgets straddling the tile/cache boundary (kTileScanRows), the SIMD
/// regime of pairwise_min_distance (32+ rows) and the fleet_replan shape.
constexpr std::size_t kBudgets[] = {2, 4, 8, 12, 16, 17, 31, 32, 33, 64};

std::vector<double> draw_point(Rng& rng, std::size_t dim, CoordMode mode) {
  std::vector<double> p(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    switch (mode) {
      case CoordMode::kContinuous:
        p[d] = rng.uniform(-300.0, 300.0);
        break;
      case CoordMode::kIntegerGrid:
        // Few distinct small integers: many pairs at exactly equal
        // distances, so only the tie rule decides the winner.
        p[d] = 10.0 * static_cast<double>(rng.below(4));
        break;
      case CoordMode::kNonFinite:
        p[d] = rng.uniform(-300.0, 300.0);
        if (rng.bernoulli(0.04)) p[d] = std::numeric_limits<double>::quiet_NaN();
        if (rng.bernoulli(0.03)) p[d] = std::numeric_limits<double>::infinity();
        if (rng.bernoulli(0.03)) p[d] = -std::numeric_limits<double>::infinity();
        if (rng.bernoulli(0.04)) p[d] = (rng.bernoulli(0.5) ? 1.0 : -1.0) * 1e200;
        break;
    }
  }
  return p;
}

/// Asserts the store's incremental answer against the all-pairs scan.
void expect_pair_matches(MomentStore& store, const char* where, std::size_t step) {
  const auto expected = store.centroids().pairwise_min_distance();
  const auto got = store.closest_pair();
  ASSERT_EQ(got, expected) << where << " at step " << step << " with " << store.size()
                           << " rows";
}

/// Merges the closest pair while the store is over budget, checking the
/// pair first — the summarizer's merge_over_budget.
void merge_over_budget(MomentStore& store, std::size_t budget, std::size_t step) {
  while (store.size() > budget) {
    expect_pair_matches(store, "merge", step);
    if (::testing::Test::HasFatalFailure()) return;
    const auto [a, b] = store.closest_pair();
    store.merge_rows(a, b);
  }
}

void run_stream(std::size_t budget, std::uint64_t seed, CoordMode mode) {
  SCOPED_TRACE(::testing::Message() << "m=" << budget << " seed=" << seed << " mode "
                                    << mode_name(mode));
  Rng rng(seed * 7919 + budget);
  const std::size_t dim = 1 + rng.below(5);
  const double floor_radius = mode == CoordMode::kIntegerGrid ? 0.5 : rng.uniform(0.0, 6.0);
  MomentStore store(floor_radius, rng.uniform(0.25, 2.0));
  std::vector<std::vector<double>> seen;
  const std::size_t steps = 40 * budget + 200;
  for (std::size_t step = 0; step < steps; ++step) {
    // Duplicates of earlier accesses give zero-distance pairs.
    std::vector<double> p = (!seen.empty() && rng.bernoulli(0.15))
                                ? seen[rng.below(seen.size())]
                                : draw_point(rng, dim, mode);
    seen.push_back(p);
    const double weight = rng.uniform(0.0, 5.0);
    if (store.empty()) {
      store.append_singleton(p.data(), dim, weight);
    } else if (!store.try_absorb(p.data(), weight)) {
      store.append_singleton(p.data(), dim, weight);
      merge_over_budget(store, budget, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // A query between spawns must not disturb the next answer.
    if (store.size() >= 2 && rng.bernoulli(0.05)) {
      expect_pair_matches(store, "extra query", step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (rng.bernoulli(0.02)) {
      // Decay hard enough to drop rows whose count rounds to zero.
      store.scale_all(rng.uniform(0.05, 0.6));
    }
    if (rng.bernoulli(0.03)) {
      // merge_cluster: a whole foreign cluster appended, then the budget
      // enforced like a spawn.
      Point center(dim);
      for (std::size_t d = 0; d < dim; ++d) center[d] = rng.uniform(-300.0, 300.0);
      MicroCluster foreign(center, 2.5);
      Point other = center;
      other[0] += rng.uniform(-3.0, 3.0);
      foreign.absorb(other, 1.0);
      store.append_moments(foreign);
      merge_over_budget(store, budget, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (rng.bernoulli(0.01) && !store.empty()) {
      // Checkpoint-style restore: a fresh store rebuilt row by row from
      // the materialized clusters must answer like the original.
      MomentStore restored(floor_radius, 1.0);
      for (std::size_t i = 0; i < store.size(); ++i) restored.append_moments(store.cluster(i));
      if (restored.size() >= 2) {
        expect_pair_matches(restored, "restore", step);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(MomentStoreClosestPair, MatchesPairwiseScanOnContinuousStreams) {
  for (const std::size_t m : kBudgets) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_stream(m, seed, CoordMode::kContinuous);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(MomentStoreClosestPair, MatchesPairwiseScanOnIntegerGridTies) {
  for (const std::size_t m : kBudgets) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_stream(m, seed, CoordMode::kIntegerGrid);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(MomentStoreClosestPair, MatchesPairwiseScanWithNonFiniteCoordinates) {
  // The store's debug invariants (moment_row_consistent) reject non-finite
  // moments outright, so this mode only runs where they are compiled out.
  if (geored_debug_checks_enabled) {
    GTEST_SKIP() << "non-finite moments trip the store's debug invariants by design";
  }
  for (const std::size_t m : kBudgets) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_stream(m, seed, CoordMode::kNonFinite);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(MomentStoreClosestPair, AllEqualDistancesPickTheFirstPair) {
  // Every row coincides: every pair ties at distance zero, and the winner
  // must be (0, 1) at any size, on either side of the tile/cache boundary.
  for (const std::size_t rows : {2u, 5u, 16u, 17u, 40u}) {
    MomentStore store(0.0, 1.0);
    const double p[2] = {3.0, -4.0};
    for (std::size_t i = 0; i < rows; ++i) store.append_singleton(p, 2, 1.0);
    EXPECT_EQ(store.closest_pair(), (std::pair<std::size_t, std::size_t>{0, 1}))
        << rows << " rows";
  }
}

TEST(MomentStoreClosestPair, InfiniteDistancesFallBackToTheFirstPair) {
  // Every pairwise distance overflows to +inf, so nothing beats the scan's
  // starting best: both answers are the default (0, 1). Row i takes the
  // sign pattern of i's bits at magnitude 0.9e154 — each square stays
  // finite, but any two rows differ in sign somewhere, and that one
  // squared difference (1.8e154)^2 already overflows.
  for (const std::size_t rows : {3u, 20u}) {
    MomentStore store(0.0, 1.0);
    for (std::size_t i = 0; i < rows; ++i) {
      double p[5];
      for (std::size_t d = 0; d < 5; ++d) p[d] = ((i >> d) & 1u) != 0 ? 0.9e154 : -0.9e154;
      store.append_singleton(p, 5, 1.0);
    }
    EXPECT_EQ(store.closest_pair(), store.centroids().pairwise_min_distance());
    EXPECT_EQ(store.closest_pair(), (std::pair<std::size_t, std::size_t>{0, 1}));
  }
}

TEST(MomentStoreClosestPair, RequiresTwoRows) {
  MomentStore store(1.0, 1.0);
  const double p[1] = {0.0};
  store.append_singleton(p, 1, 1.0);
  EXPECT_THROW(store.closest_pair(), InternalError);
}

}  // namespace
}  // namespace geored::cluster
