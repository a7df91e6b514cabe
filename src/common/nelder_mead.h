// Derivative-free simplex minimization (Nelder-Mead).
//
// Used by the GNP-style landmark embedding, which minimizes the latency
// prediction error of a coordinate assignment — a low-dimensional, noisy,
// non-smooth objective for which Nelder-Mead is the method GNP itself used.
#pragma once

#include <functional>
#include <vector>

namespace geored {

struct NelderMeadOptions {
  std::size_t max_iterations = 2000;
  /// Converged when the simplex's best-worst objective spread drops below this.
  double tolerance = 1e-7;
  /// Initial simplex is the start point plus per-coordinate offsets of this size.
  double initial_step = 1.0;
};

struct NelderMeadResult {
  std::vector<double> argmin;
  double min_value = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Minimizes `objective` starting from `start`. The objective must accept a
/// vector of the same dimension as `start` and return a finite value.
NelderMeadResult nelder_mead(
    const std::function<double(const std::vector<double>&)>& objective,
    std::vector<double> start, const NelderMeadOptions& options = {});

}  // namespace geored
