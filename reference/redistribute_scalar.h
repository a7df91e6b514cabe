// Frozen scalar reference for core::redistribute_summaries: the historical
// per-summary linear scans (O(summaries x k x candidates)), kept verbatim as
// the equivalence baseline (EpochPipeline.AdopterMatchesScalar) and the
// epoch_end_to_end bench arm. Never optimize this function.
#pragma once

#include <map>
#include <vector>

#include "cluster/summarizer.h"
#include "placement/types.h"

namespace geored::core {

void redistribute_summaries_scalar(
    const place::Placement& next, const std::vector<cluster::MicroCluster>& summaries,
    const std::vector<place::CandidateInfo>& candidates,
    const cluster::SummarizerConfig& summarizer_config,
    std::map<topo::NodeId, cluster::MicroClusterSummarizer>& summarizers);

}  // namespace geored::core
