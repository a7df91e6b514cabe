#include "placement/local_search.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/ensure.h"
#include "common/thread_pool.h"
#include "placement/latency_matrix.h"
#include "placement/online_clustering.h"
#include "placement/random_placement.h"

namespace geored::place {

LocalSearchPlacement::LocalSearchPlacement(std::unique_ptr<PlacementStrategy> seed_strategy,
                                           LocalSearchConfig config)
    : seed_(seed_strategy ? std::move(seed_strategy)
                          : std::make_unique<OnlineClusteringPlacement>()),
      config_(config) {
  GEORED_ENSURE(config_.max_rounds >= 1, "local search needs at least one round");
  GEORED_ENSURE(config_.tolerance >= 0.0, "tolerance must be non-negative");
}

std::string LocalSearchPlacement::name() const { return seed_->name() + " +local-search"; }

Placement LocalSearchPlacement::place(const PlacementInput& input) const {
  GEORED_ENSURE(!input.candidates.empty(), "no candidate data centers");
  Placement placement = seed_->place(input);
  if (input.clients.empty() || placement.size() == input.candidates.size()) {
    return placement;  // nothing to optimize against, or no free candidates
  }

  // Precompute estimated latencies candidate x client once.
  const std::size_t n_cand = input.candidates.size();
  const std::size_t n_client = input.clients.size();
  const LatencyMatrix latency = build_latency_matrix(input.candidates, input.clients);
  const std::vector<double> weight = access_weights(input.clients);

  std::unordered_map<topo::NodeId, std::size_t> candidate_index;
  candidate_index.reserve(n_cand);
  for (std::size_t c = 0; c < n_cand; ++c) {
    candidate_index.emplace(input.candidates[c].node, c);
  }

  std::vector<std::size_t> chosen;
  chosen.reserve(placement.size());
  std::vector<bool> in_placement(n_cand, false);
  for (const auto node : placement) {
    const auto it = candidate_index.find(node);
    if (it == candidate_index.end()) {
      throw InternalError("placement node missing from candidates");
    }
    chosen.push_back(it->second);
    in_placement[chosen.back()] = true;
  }
  const std::size_t slots = chosen.size();

  // Incremental objective state: each client's closest and second-closest
  // chosen replica. Removing a slot then adding candidate c costs one pass:
  //   base(u, slot) = (closest is slot) ? second-closest : closest
  //   total(slot -> c) = sum_u min(base(u, slot), latency[c][u]) * w[u]
  // Minima are exact in floating point, so these totals are bit-identical
  // to re-scanning all k members — the classical local-search delta rule,
  // O(clients) per swap instead of O(clients * k).
  std::vector<double> best1(n_client), best2(n_client);
  std::vector<std::size_t> best1_slot(n_client);
  const auto recompute_best = [&] {
    parallel_for(
        n_client,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t u = begin; u < end; ++u) {
            double b1 = std::numeric_limits<double>::infinity();
            double b2 = std::numeric_limits<double>::infinity();
            std::size_t s1 = 0;
            for (std::size_t slot = 0; slot < slots; ++slot) {
              const double d = latency.row(chosen[slot])[u];
              if (d < b1) {
                b2 = b1;
                b1 = d;
                s1 = slot;
              } else if (d < b2) {
                b2 = d;
              }
            }
            best1[u] = b1;
            best2[u] = b2;
            best1_slot[u] = s1;
          }
        },
        min_parallel_rows(slots));
  };

  recompute_best();
  double current = 0.0;
  for (std::size_t u = 0; u < n_client; ++u) current += best1[u] * weight[u];

  std::vector<double> swap_totals(n_cand, std::numeric_limits<double>::infinity());
  for (std::size_t round = 0; round < config_.max_rounds; ++round) {
    double best_delta = 0.0;
    std::size_t best_slot = 0, best_replacement = 0;
    bool improved = false;
    for (std::size_t slot = 0; slot < slots; ++slot) {
      parallel_for(
          n_cand,
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t c = begin; c < end; ++c) {
              if (in_placement[c]) continue;
              const double* row = latency.row(c);
              double total = 0.0;
              for (std::size_t u = 0; u < n_client; ++u) {
                const double base = best1_slot[u] == slot ? best2[u] : best1[u];
                total += std::min(base, row[u]) * weight[u];
              }
              swap_totals[c] = total;
            }
          },
          min_parallel_rows(n_client));
      for (std::size_t c = 0; c < n_cand; ++c) {
        if (in_placement[c]) continue;
        const double delta = current - swap_totals[c];
        if (delta > best_delta + config_.tolerance * std::max(1.0, current)) {
          best_delta = delta;
          best_slot = slot;
          best_replacement = c;
          improved = true;
        }
      }
    }
    if (!improved) break;
    in_placement[chosen[best_slot]] = false;
    in_placement[best_replacement] = true;
    chosen[best_slot] = best_replacement;
    current -= best_delta;
    recompute_best();
  }

  Placement result;
  result.reserve(chosen.size());
  for (const auto c : chosen) result.push_back(input.candidates[c].node);
  return result;
}

}  // namespace geored::place
