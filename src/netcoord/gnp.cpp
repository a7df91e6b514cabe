#include "netcoord/gnp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/ensure.h"
#include "common/nelder_mead.h"

namespace geored::coord {

std::vector<topo::NodeId> select_landmarks(const topo::Topology& topology, std::size_t count) {
  GEORED_ENSURE(count >= 2, "GNP needs at least two landmarks");
  GEORED_ENSURE(count <= topology.size(), "more landmarks than nodes");
  std::vector<topo::NodeId> landmarks{0};
  std::vector<double> min_dist(topology.size(), std::numeric_limits<double>::infinity());
  while (landmarks.size() < count) {
    const topo::NodeId latest = landmarks.back();
    topo::NodeId farthest = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < topology.size(); ++i) {
      const auto id = static_cast<topo::NodeId>(i);
      min_dist[i] = std::min(min_dist[i], topology.rtt_ms(id, latest));
      if (min_dist[i] > best &&
          std::find(landmarks.begin(), landmarks.end(), id) == landmarks.end()) {
        best = min_dist[i];
        farthest = id;
      }
    }
    landmarks.push_back(farthest);
  }
  return landmarks;
}

namespace {

double relative_error_sq(double predicted, double actual) {
  if (actual <= 0.0) return 0.0;
  const double rel = (predicted - actual) / actual;
  return rel * rel;
}

}  // namespace

std::vector<NetworkCoordinate> run_gnp(const topo::Topology& topology,
                                       const GnpConfig& config) {
  GEORED_ENSURE(config.dimensions >= 1, "GNP needs at least one dimension");
  const std::size_t d = config.dimensions;
  const auto landmarks = select_landmarks(topology, config.landmark_count);
  const std::size_t L = landmarks.size();

  // Phase 1: joint landmark embedding. Variables are the L*d landmark
  // coordinates; objective is the summed squared relative error over all
  // landmark pairs.
  const auto landmark_objective = [&](const std::vector<double>& vars) {
    double total = 0.0;
    for (std::size_t i = 0; i < L; ++i) {
      for (std::size_t j = i + 1; j < L; ++j) {
        double dist_sq = 0.0;
        for (std::size_t k = 0; k < d; ++k) {
          const double delta = vars[i * d + k] - vars[j * d + k];
          dist_sq += delta * delta;
        }
        total += relative_error_sq(std::sqrt(dist_sq),
                                   topology.rtt_ms(landmarks[i], landmarks[j]));
      }
    }
    return total;
  };

  // Start from a crude spread: landmark i at (rtt(0,i), rtt(1,i), 0, ...) so
  // the simplex does not begin fully degenerate at the origin.
  std::vector<double> start(L * d, 0.0);
  for (std::size_t i = 0; i < L; ++i) {
    start[i * d] = topology.rtt_ms(landmarks[0], landmarks[i]);
    if (d >= 2 && L >= 2) start[i * d + 1] = topology.rtt_ms(landmarks[1], landmarks[i]);
  }

  NelderMeadOptions landmark_options;
  landmark_options.max_iterations = config.landmark_iterations;
  landmark_options.initial_step = 50.0;  // ms-scale coordinates
  const auto landmark_fit = nelder_mead(landmark_objective, start, landmark_options);

  std::vector<NetworkCoordinate> coords(topology.size(), NetworkCoordinate(d));
  std::vector<bool> is_landmark(topology.size(), false);
  for (std::size_t i = 0; i < L; ++i) {
    Point p(d);
    for (std::size_t k = 0; k < d; ++k) p[k] = landmark_fit.argmin[i * d + k];
    coords[landmarks[i]].position = p;
    coords[landmarks[i]].error =
        std::sqrt(landmark_fit.min_value / static_cast<double>(L * (L - 1) / 2));
    is_landmark[landmarks[i]] = true;
  }

  // Phase 2: embed each ordinary node against the landmark coordinates.
  NelderMeadOptions node_options;
  node_options.max_iterations = config.node_iterations;
  node_options.initial_step = 50.0;
  for (std::size_t node = 0; node < topology.size(); ++node) {
    if (is_landmark[node]) continue;
    const auto id = static_cast<topo::NodeId>(node);
    const auto node_objective = [&](const std::vector<double>& vars) {
      double total = 0.0;
      for (const auto landmark : landmarks) {
        double dist_sq = 0.0;
        for (std::size_t k = 0; k < d; ++k) {
          const double delta = vars[k] - coords[landmark].position[k];
          dist_sq += delta * delta;
        }
        total += relative_error_sq(std::sqrt(dist_sq), topology.rtt_ms(id, landmark));
      }
      return total;
    };
    // Start at the closest landmark's coordinate.
    topo::NodeId closest = landmarks[0];
    for (const auto landmark : landmarks) {
      if (topology.rtt_ms(id, landmark) < topology.rtt_ms(id, closest)) closest = landmark;
    }
    const auto fit =
        nelder_mead(node_objective, coords[closest].position.values(), node_options);
    Point p(d);
    for (std::size_t k = 0; k < d; ++k) p[k] = fit.argmin[k];
    coords[node].position = p;
    coords[node].error = std::sqrt(fit.min_value / static_cast<double>(L));
  }
  return coords;
}

}  // namespace geored::coord
