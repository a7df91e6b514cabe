// Flat summary collection: every source ships straight to the root, the
// baseline the hierarchical collector's bandwidth and latency are compared
// against (aggregation_test, bench/ablation_aggregation).
#pragma once

#include <vector>

#include "core/epoch_pipeline.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace geored::core {

/// Sends every source's summary to `root` as summary traffic and runs the
/// simulator to completion: afterwards simulator.now() is the moment the
/// root had everything. Returns the root's view in arrival order, with
/// summary_bytes the root's inbound bytes.
CollectedSummaries run_flat_collection(sim::Simulator& simulator, sim::Network& network,
                                       const std::vector<SummarySource>& sources,
                                       topo::NodeId root);

}  // namespace geored::core
