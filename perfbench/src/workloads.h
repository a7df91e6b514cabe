// The benchmark's workloads. Each composes the library's public APIs the way
// a deployment front-end would and times every call boundary from here; the
// library itself carries no benchmark instrumentation.
//
// Every workload is open-loop on a virtual-time schedule of Poisson
// arrivals, replayed as fast as the program goes. Latencies are virtual and
// counted from each request's due time, so the generator cannot run late:
// a slow program takes longer in wall time but every request still starts
// at its scheduled virtual instant.
//
// A run replays the same seeded round (fresh program objects, identical
// inputs) until `seconds` of wall time have passed, always finishing at
// least one round. Every round must produce the same determinism digest,
// and virtual metrics (latencies, bytes) are those of a round; wall metrics
// (throughput, epoch times) pool every epoch of every round of the run, and
// the CPU-bound ones are restated at reference speed (helpers.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "helpers.h"
#include "world.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Self-check size: small rounds, exactly one round per run.
  bool tiny = false;
  /// Scenario file for scenario_churn.
  std::string scenario_path = "perfbench/scenarios/scenario_churn.json";
};

/// What one run of a workload measured and checked.
struct PhaseResult {
  MetricSet end_to_end;
  MetricSet per_layer;  ///< filled from spans; empty when untraced
  Accounting accounting;
  std::string digest;
  std::vector<std::string> violations;
  std::size_t rounds = 0;
  std::size_t epochs = 0;
  double timed_ms = 0.0;   ///< wall time of the timed work
  std::uint64_t ops = 0;   ///< operations completed in the timed work
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Whether set-up happens outside the measured call (false when the
  /// library builds the world inside it, as run_scenario does).
  virtual bool reports_setup() const { return true; }
  /// Builds the world-dependent inputs and the first round's program
  /// objects: the set-up the benchmark times.
  virtual void prepare(const World& world) = 0;
  /// Runs rounds until the time is up (at least one).
  virtual PhaseResult run(Tracer& tracer) = 0;
};

/// Every workload, in the order `--workload all` runs them.
std::vector<std::string> workload_names();

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, const Options& options);

/// The world every workload runs on (tiny runs shrink it).
WorldSpec world_spec(const Options& options);

}  // namespace perfbench
