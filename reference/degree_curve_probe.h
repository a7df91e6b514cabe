// Frozen reference for core::degree_curve: the per-degree probe it
// replaced. Each degree copies the candidates and summaries into a fresh
// PlacementInput, places it through make_strategy("online")->place(), and
// estimates the per-access delay with one ReplicaPanel::nearest_up query
// per summary. The DegreeCurve tests and the degree_curve bench arm require
// bit-identical curves. Never optimize this function.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/microcluster.h"
#include "placement/types.h"

namespace geored::core {

std::vector<double> degree_curve_per_degree(
    const std::vector<place::CandidateInfo>& candidates,
    const std::vector<cluster::MicroCluster>& summaries, std::uint64_t seed,
    std::size_t min_degree, std::size_t max_degree);

}  // namespace geored::core
