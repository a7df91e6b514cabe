#include "topology/topology.h"

#include <istream>
#include <ostream>

#include "common/ensure.h"

namespace geored::topo {

Topology::Topology(std::vector<NodeInfo> nodes, SymMatrix rtt_ms,
                   std::vector<std::string> region_names)
    : nodes_(std::move(nodes)),
      rtt_(std::move(rtt_ms)),
      region_names_(std::move(region_names)) {
  GEORED_ENSURE(nodes_.size() == rtt_.size(),
                "node list and RTT matrix must have the same size");
}

void Topology::save(std::ostream& os) const {
  os << nodes_.size() << ' ' << region_names_.size() << '\n';
  for (const auto& name : region_names_) os << name << '\n';
  for (const auto& node : nodes_) {
    os << node.location.lat_deg << ' ' << node.location.lon_deg << ' ' << node.region << ' '
       << node.access_ms << '\n';
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes_.size(); ++j) {
      os << rtt_.at(i, j) << (j + 1 == nodes_.size() ? '\n' : ' ');
    }
  }
}

Topology Topology::load(std::istream& is) {
  std::size_t n = 0, region_count = 0;
  GEORED_ENSURE(static_cast<bool>(is >> n >> region_count), "malformed topology header");
  std::vector<std::string> region_names(region_count);
  for (auto& name : region_names) {
    GEORED_ENSURE(static_cast<bool>(is >> name), "malformed region name");
  }
  std::vector<NodeInfo> nodes(n);
  for (auto& node : nodes) {
    GEORED_ENSURE(static_cast<bool>(is >> node.location.lat_deg >> node.location.lon_deg >>
                                    node.region >> node.access_ms),
                  "malformed node line");
  }
  SymMatrix rtt(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double value = 0.0;
      GEORED_ENSURE(static_cast<bool>(is >> value), "malformed RTT entry");
      GEORED_ENSURE(value >= 0.0, "RTT entries must be non-negative");
      rtt.set(i, j, value);
    }
  }
  return Topology(std::move(nodes), std::move(rtt), std::move(region_names));
}

Topology Topology::subset(const std::vector<NodeId>& node_ids) const {
  GEORED_ENSURE(node_ids.size() >= 2, "a topology subset needs at least two nodes");
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeInfo> selected;
  selected.reserve(node_ids.size());
  for (const auto id : node_ids) {
    GEORED_ENSURE(id < nodes_.size(), "subset references an unknown node");
    GEORED_ENSURE(!seen[id], "subset contains a duplicate node");
    seen[id] = true;
    selected.push_back(nodes_[id]);
  }
  SymMatrix rtt(node_ids.size());
  for (std::size_t i = 0; i < node_ids.size(); ++i) {
    for (std::size_t j = i + 1; j < node_ids.size(); ++j) {
      rtt.set(i, j, rtt_.at(node_ids[i], node_ids[j]));
    }
  }
  return Topology(std::move(selected), std::move(rtt), region_names_);
}

Topology Topology::from_rtt_matrix_stream(std::istream& is) {
  std::size_t n = 0;
  GEORED_ENSURE(static_cast<bool>(is >> n), "malformed matrix header");
  GEORED_ENSURE(n >= 2, "RTT matrix needs at least two nodes");
  std::vector<std::vector<double>> full(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      GEORED_ENSURE(static_cast<bool>(is >> full[i][j]), "malformed matrix entry");
    }
  }
  SymMatrix rtt(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (full[i][j] + full[j][i]);
      GEORED_ENSURE(avg >= 0.0, "RTT entries must be non-negative");
      rtt.set(i, j, avg);
    }
  }
  return Topology(std::vector<NodeInfo>(n), std::move(rtt), {});
}

}  // namespace geored::topo
