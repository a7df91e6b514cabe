// ReplicaPanel: the shared nearest-replica primitive. Pins the one tie rule
// (strict-`<` first winner over ascending NodeId), the down-set and
// per-call exclusion handling, the spill re-scan, the r-nearest order, and
// the batched scan against a single-query loop.
#include "serve/replica_panel.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "common/point_set.h"
#include "common/random.h"

namespace geored::serve {
namespace {

TEST(ReplicaPanel, TiesGoToTheLowestNodeIdWhateverTheSpecOrder) {
  ReplicaPanel panel;
  const Point shared{1.0, 2.0};
  panel.set_replicas({{9, shared}, {3, shared}, {7, {40.0, 40.0}}});
  EXPECT_EQ(panel.nodes(), (std::vector<topo::NodeId>{3, 7, 9}));
  double best_sq = -1.0;
  const std::size_t row = panel.nearest_up(shared.values().data(), &best_sq);
  ASSERT_NE(row, ReplicaPanel::kNone);
  EXPECT_EQ(panel.up_node(row), 3u);
  EXPECT_EQ(best_sq, 0.0);
}

TEST(ReplicaPanel, NearestRIsDistanceThenNodeIdOrder) {
  ReplicaPanel panel;
  panel.set_replicas({{8, {5.0}}, {6, {1.0}}, {2, {5.0}}, {4, {-1.0}}});
  std::vector<topo::NodeId> out;
  const double origin = 0.0;
  panel.nearest_r(&origin, 4, out);
  // 4 and 6 tie at distance 1, 2 and 8 tie at distance 5.
  EXPECT_EQ(out, (std::vector<topo::NodeId>{4, 6, 2, 8}));
  panel.nearest_r(&origin, 3, out);
  EXPECT_EQ(out, (std::vector<topo::NodeId>{4, 6, 2}));
  panel.nearest_r(&origin, 9, out);  // r above the replica count
  EXPECT_EQ(out.size(), 4u);
  panel.set_down({6});
  panel.nearest_r(&origin, 2, out);
  EXPECT_EQ(out, (std::vector<topo::NodeId>{4, 2}));
}

TEST(ReplicaPanel, DownAndFilteredReplicasAreSkipped) {
  ReplicaPanel panel;
  panel.set_replicas({{1, {0.0}}, {2, {10.0}}, {3, {20.0}}});
  const double query = 1.0;
  panel.set_down({1});
  EXPECT_EQ(panel.up_count(), 2u);
  EXPECT_EQ(panel.up_node(panel.nearest_up(&query)), 2u);
  const auto skip_node_2 = [&](std::size_t row) { return panel.up_node(row) != 2; };
  EXPECT_EQ(panel.up_node(panel.nearest_up(&query, nullptr, skip_node_2)), 3u);
  EXPECT_EQ(panel.nearest_up(&query, nullptr, [](std::size_t) { return false; }),
            ReplicaPanel::kNone);
  panel.set_down({1, 2, 3});
  EXPECT_EQ(panel.nearest_up(&query), ReplicaPanel::kNone);
  // Replacing the replica set keeps the down set.
  panel.set_replicas({{3, {0.0}}, {4, {5.0}}});
  EXPECT_EQ(panel.up_count(), 1u);
  EXPECT_EQ(panel.up_node(panel.nearest_up(&query)), 4u);
}

TEST(ReplicaPanel, SpillRescanExcludesThePrimaryRow) {
  ReplicaPanel panel;
  panel.set_replicas({{5, {0.0}}, {6, {3.0}}, {7, {3.0}}});
  const Point query{0.0};
  double primary_sq = 0.0;
  const std::size_t primary = panel.nearest_up(query.values().data(), &primary_sq);
  EXPECT_EQ(panel.up_node(primary), 5u);
  double spill_sq = 0.0;
  const std::size_t spill = panel.nearest_up(query.values().data(), &spill_sq,
                                             [&](std::size_t row) { return row != primary; });
  EXPECT_EQ(panel.up_node(spill), 6u);
  EXPECT_EQ(spill_sq, 9.0);
}

TEST(ReplicaPanel, DuplicateNodesThrowAndLeaveThePanelUnchanged) {
  ReplicaPanel panel;
  panel.set_replicas({{1, {0.0}}, {2, {1.0}}});
  EXPECT_THROW(panel.set_replicas({{4, {0.0}}, {4, {1.0}}}), std::invalid_argument);
  EXPECT_EQ(panel.nodes(), (std::vector<topo::NodeId>{1, 2}));
  EXPECT_EQ(panel.up_count(), 2u);
}

TEST(ReplicaPanel, BatchedScanMatchesTheSingleQueryLoop) {
  Rng rng(17);
  for (std::size_t trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 2 + trial % 3;
    std::vector<ReplicaSpec> specs;
    for (topo::NodeId node = 0; node < 1 + trial % 9; ++node) {
      Point coords(dim);
      for (std::size_t d = 0; d < dim; ++d) coords[d] = rng.uniform(-10.0, 10.0);
      // Every third replica twins the first one to force exact ties.
      if (node % 3 == 2) coords = specs.front().coords;
      specs.push_back({static_cast<topo::NodeId>(40 - node), coords});
    }
    ReplicaPanel panel;
    panel.set_replicas(specs);
    PointSet queries(dim);
    for (std::size_t q = 0; q < 64; ++q) {
      Point query(dim);
      for (std::size_t d = 0; d < dim; ++d) query[d] = rng.uniform(-12.0, 12.0);
      if (q % 5 == 0) query = specs.front().coords;
      queries.push_back(query);
    }
    std::vector<std::size_t> assign(queries.size());
    std::vector<double> best(queries.size());
    std::vector<double> second(queries.size());
    panel.nearest2_batch(queries, nullptr, queries.size(), assign.data(), best.data(),
                         second.data());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      double best_sq = 0.0;
      const std::size_t row = panel.nearest_up(queries.row(q), &best_sq);
      ASSERT_EQ(assign[q], row) << "trial " << trial << " query " << q;
      ASSERT_EQ(best[q], best_sq) << "trial " << trial << " query " << q;
    }
  }
}

}  // namespace
}  // namespace geored::serve
