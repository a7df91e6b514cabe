#include "core/epoch_trace.h"

#include <chrono>

namespace geored::core {

double trace_now_ms() {
  // The one non-net translation unit allowed to read the wall clock (see
  // the wall-clock allowlist in tools/geored_lint.py): stage traces need
  // sub-millisecond resolution, which the injected net::Clock interface
  // deliberately does not offer, and nothing deterministic consumes the
  // result.
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(now).count();
}

}  // namespace geored::core
