#include "reference/flat_collection.h"

#include <memory>

#include "common/ensure.h"

namespace geored::core {

CollectedSummaries run_flat_collection(sim::Simulator& simulator, sim::Network& network,
                                       const std::vector<SummarySource>& sources,
                                       topo::NodeId root) {
  GEORED_ENSURE(!sources.empty(), "collection needs at least one source");
  auto collected = std::make_shared<CollectedSummaries>();
  for (const auto& source : sources) {
    const std::size_t bytes = cluster::serialized_size(source.clusters);
    collected->summary_bytes += bytes;
    const auto clusters = source.clusters;
    network.send(source.node, root, bytes, sim::TrafficClass::kSummary, [collected, clusters] {
      for (const auto& micro : clusters) collected->summaries.push_back(micro);
    });
  }
  simulator.run();
  return std::move(*collected);
}

}  // namespace geored::core
