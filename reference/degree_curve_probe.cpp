#include "reference/degree_curve_probe.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/replication_manager.h"
#include "placement/strategy.h"

namespace geored::core {

namespace {

double estimate_average_delay(const serve::ReplicaPanel& panel,
                              const std::vector<cluster::MicroCluster>& summaries) {
  double total = 0.0, accesses = 0.0;
  for (const auto& micro : summaries) {
    if (micro.count() == 0) continue;
    double best_sq = std::numeric_limits<double>::infinity();
    panel.nearest_up(micro.centroid().values().data(), &best_sq);
    total += std::sqrt(best_sq) * static_cast<double>(micro.count());
    accesses += static_cast<double>(micro.count());
  }
  return accesses > 0.0 ? total / accesses : 0.0;
}

}  // namespace

std::vector<double> degree_curve_per_degree(
    const std::vector<place::CandidateInfo>& candidates,
    const std::vector<cluster::MicroCluster>& summaries, std::uint64_t seed,
    std::size_t min_degree, std::size_t max_degree) {
  double weight = 0.0;
  for (const auto& micro : summaries) weight += static_cast<double>(micro.count());
  const auto probe = place::make_strategy("online");
  std::vector<double> curve;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = min_degree; k <= max_degree; ++k) {
    place::PlacementInput input;
    input.candidates = candidates;
    input.k = k;
    input.summaries = summaries;
    input.seed = seed;
    const double per_access =
        estimate_average_delay(replica_panel(candidates, probe->place(input)), summaries);
    best = std::min(best, per_access);
    curve.push_back(best * weight);
  }
  return curve;
}

}  // namespace geored::core
