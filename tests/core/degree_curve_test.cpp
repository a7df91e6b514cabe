// The fleet's demand curve (ReplicationManager::delay_by_degree_curve and
// core::degree_curve) pinned bit for bit against the per-degree probe it
// replaced (reference/degree_curve_probe.h): a fresh PlacementInput per
// degree through make_strategy("online")->place() and a nearest_up delay
// estimate per summary.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/replication_manager.h"
#include "reference/degree_curve_probe.h"

namespace geored::core {
namespace {

constexpr std::size_t kMinDegree = 1;
constexpr std::size_t kMaxDegree = 7;
constexpr std::uint64_t kSeed = 29;

std::vector<place::CandidateInfo> grid_candidates() {
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < 12; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i),
                          Point{90.0 * static_cast<double>(i % 4),
                                120.0 * static_cast<double>(i / 4)},
                          std::numeric_limits<double>::infinity()});
  }
  return candidates;
}

ManagerConfig curve_config() {
  ManagerConfig config;
  config.replication_degree = 3;
  config.summarizer.max_clusters = 8;
  config.summarizer.min_absorb_radius = 5.0;
  return config;
}

/// Three regional populations of different sizes.
void feed(ReplicationManager& manager, std::uint64_t epoch) {
  Rng rng(500 + epoch);
  const double centers[3][2] = {{20.0, 30.0}, {250.0, 200.0}, {100.0, 260.0}};
  for (int region = 0; region < 3; ++region) {
    for (int i = 0; i < 80 * (region + 1); ++i) {
      manager.serve(Point{rng.normal(centers[region][0], 25.0),
                          rng.normal(centers[region][1], 25.0)});
    }
  }
}

/// The manager's summaries in its summarizers' (ascending node) order.
std::vector<cluster::MicroCluster> summaries_of(const ReplicationManager& manager) {
  place::Placement nodes = manager.placement();
  std::sort(nodes.begin(), nodes.end());
  std::vector<cluster::MicroCluster> summaries;
  for (const auto node : nodes) {
    const auto& held = manager.summary_of(node);
    summaries.insert(summaries.end(), held.begin(), held.end());
  }
  return summaries;
}

/// The manager's probe seed after `epochs` epochs (its frozen formula).
std::uint64_t probe_seed(std::uint64_t epochs) {
  return kSeed ^ (0xd1b54a32d192ed03ULL + epochs);
}

std::vector<std::uint64_t> bits(const std::vector<double>& curve) {
  std::vector<std::uint64_t> out;
  for (const double value : curve) out.push_back(std::bit_cast<std::uint64_t>(value));
  return out;
}

void expect_matches_probe(const ReplicationManager& manager, std::uint64_t epochs) {
  const auto curve = manager.delay_by_degree_curve(kMinDegree, kMaxDegree);
  const auto reference = degree_curve_per_degree(grid_candidates(), summaries_of(manager),
                                                 probe_seed(epochs), kMinDegree, kMaxDegree);
  ASSERT_EQ(curve.size(), kMaxDegree - kMinDegree + 1);
  EXPECT_EQ(bits(curve), bits(reference));
}

class DegreeCurve : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { ThreadPool::set_global_thread_count(GetParam()); }
  void TearDown() override { ThreadPool::set_global_thread_count(0); }
};

TEST_P(DegreeCurve, TrainedGroupMatchesPerDegreeProbe) {
  ReplicationManager manager(grid_candidates(), curve_config(), kSeed);
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    feed(manager, epoch);
    manager.run_epoch();
  }
  feed(manager, 3);  // staged accesses the curve must flush first
  ASSERT_FALSE(summaries_of(manager).empty());
  expect_matches_probe(manager, 3);
  const auto curve = manager.delay_by_degree_curve(kMinDegree, kMaxDegree);
  EXPECT_GT(curve.front(), curve.back());
}

TEST_P(DegreeCurve, GroupWithNoAccessesMatchesPerDegreeProbe) {
  const ReplicationManager manager(grid_candidates(), curve_config(), kSeed);
  expect_matches_probe(manager, 0);
  for (const double value : manager.delay_by_degree_curve(kMinDegree, kMaxDegree)) {
    EXPECT_EQ(value, 0.0);
  }
}

TEST_P(DegreeCurve, DecayedGroupMatchesPerDegreeProbe) {
  ReplicationManager manager(grid_candidates(), curve_config(), kSeed);
  feed(manager, 0);
  manager.run_epoch();
  const auto total_count = [&] {
    std::uint64_t total = 0;
    for (const auto& micro : summaries_of(manager)) total += micro.count();
    return total;
  };
  // Quiet epochs: the retained summaries decay toward one access each.
  const std::uint64_t trained = total_count();
  for (std::uint64_t epochs = 2; epochs <= 6; ++epochs) {
    manager.run_epoch();
    expect_matches_probe(manager, epochs);
    if (HasFailure()) return;
  }
  EXPECT_LT(total_count(), trained / 4);
}

TEST_P(DegreeCurve, ZeroCountClustersMatchPerDegreeProbe) {
  // A summary set holding clusters decayed to count 0 (MicroCluster::scale
  // keeps them; the summarizer would drop them), some at the front.
  std::vector<cluster::MicroCluster> summaries;
  Rng rng(8);
  for (int i = 0; i < 24; ++i) {
    cluster::MicroCluster micro(Point{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)}, 1.0);
    const int extra = i % 3 == 0 ? 0 : 1 + i;
    for (int a = 0; a < extra; ++a) {
      micro.absorb(Point{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)}, 1.0);
    }
    if (i % 3 == 0) micro.scale(0.25);  // count 1 -> 0
    summaries.push_back(micro);
  }
  ASSERT_EQ(summaries.front().count(), 0u);
  EXPECT_EQ(bits(degree_curve(grid_candidates(), summaries, 77, kMinDegree, kMaxDegree)),
            bits(degree_curve_per_degree(grid_candidates(), summaries, 77, kMinDegree,
                                         kMaxDegree)));
  // Only zero-count clusters: no accesses, the empty-summary path.
  std::vector<cluster::MicroCluster> decayed;
  for (const auto& micro : summaries) {
    if (micro.count() == 0) decayed.push_back(micro);
  }
  EXPECT_EQ(bits(degree_curve(grid_candidates(), decayed, 77, kMinDegree, kMaxDegree)),
            bits(degree_curve_per_degree(grid_candidates(), decayed, 77, kMinDegree,
                                         kMaxDegree)));
}

INSTANTIATE_TEST_SUITE_P(Threads, DegreeCurve, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<std::size_t>& param) {
                           return "threads" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace geored::core
