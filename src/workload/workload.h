// Client access workloads.
//
// A Workload describes, for every client, a (possibly time-varying) access
// rate and a data volume per access. The fast evaluation harness samples
// Poisson access *counts* per epoch from it; the event-driven simulator
// samples individual arrival *times* via thinning. Both consume the same
// object, so experiments agree across the two execution paths.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"

namespace geored::wl {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t client_count() const = 0;

  /// Instantaneous access rate of client `i` at virtual time `time_ms`,
  /// in accesses per millisecond.
  virtual double rate(std::size_t i, double time_ms) const = 0;

  /// An upper bound on rate(i, t) over all t (needed for thinning).
  virtual double max_rate(std::size_t i) const = 0;

  /// Mean data volume exchanged per access, in normalized units.
  virtual double data_per_access(std::size_t i) const;

  /// Expected number of accesses by client `i` in [t0, t1], integrated by
  /// midpoint quadrature (exact for the piecewise-constant workloads).
  double expected_accesses(std::size_t i, double t0, double t1,
                           std::size_t quadrature_steps = 16) const;

  /// Poisson-samples the access count of client `i` over [t0, t1].
  std::uint64_t sample_access_count(std::size_t i, double t0, double t1, Rng& rng) const;

  /// Samples individual arrival times of client `i` in [t0, t1) by thinning
  /// (exact for any rate function bounded by max_rate). Sorted ascending.
  std::vector<double> sample_arrival_times(std::size_t i, double t0, double t1,
                                           Rng& rng) const;
};

/// Time-invariant per-client rates.
class StaticWorkload final : public Workload {
 public:
  StaticWorkload(std::vector<double> rates, std::vector<double> data_per_access = {});

  std::size_t client_count() const override { return rates_.size(); }
  double rate(std::size_t i, double time_ms) const override;
  double max_rate(std::size_t i) const override;
  double data_per_access(std::size_t i) const override;

 private:
  std::vector<double> rates_;
  std::vector<double> data_;
};

/// Equal mean rate for every client, with multiplicative lognormal spread.
std::unique_ptr<StaticWorkload> make_uniform_workload(std::size_t clients, double mean_rate,
                                                      double lognormal_sigma,
                                                      std::uint64_t seed);

/// Heavy-tailed client popularity: client rates follow a Zipf law with the
/// given exponent, scaled so they sum to `total_rate`.
std::unique_ptr<StaticWorkload> make_zipf_workload(std::size_t clients, double total_rate,
                                                   double exponent, std::uint64_t seed);

/// Follow-the-sun modulation: each client's base rate is multiplied by a
/// sinusoid of the given period whose phase is derived from the client's
/// phase value (e.g. longitude / 360). rate never drops below
/// `floor_fraction` of the base.
class DiurnalWorkload final : public Workload {
 public:
  DiurnalWorkload(std::unique_ptr<Workload> base, std::vector<double> phases,
                  double period_ms, double floor_fraction = 0.1);

  std::size_t client_count() const override { return base_->client_count(); }
  double rate(std::size_t i, double time_ms) const override;
  double max_rate(std::size_t i) const override;
  double data_per_access(std::size_t i) const override { return base_->data_per_access(i); }

 private:
  std::unique_ptr<Workload> base_;
  std::vector<double> phases_;  ///< in [0,1), fraction of the period
  double period_ms_;
  double floor_fraction_;
};

/// Client churn: client `i` is only active during [windows[i].start,
/// windows[i].end); outside its window its rate is zero. Models user
/// populations that appear and disappear (the paper's motivation for
/// summarizing *recent* accesses).
class ActiveWindowWorkload final : public Workload {
 public:
  struct Window {
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  ActiveWindowWorkload(std::unique_ptr<Workload> base, std::vector<Window> windows);

  std::size_t client_count() const override { return base_->client_count(); }
  double rate(std::size_t i, double time_ms) const override;
  double max_rate(std::size_t i) const override { return base_->max_rate(i); }
  double data_per_access(std::size_t i) const override { return base_->data_per_access(i); }

 private:
  std::unique_ptr<Workload> base_;
  std::vector<Window> windows_;
};

/// A demand spike: clients in `affected` have their rate multiplied by
/// `boost` during [start_ms, end_ms).
class FlashCrowdWorkload final : public Workload {
 public:
  FlashCrowdWorkload(std::unique_ptr<Workload> base, std::vector<bool> affected,
                     double start_ms, double end_ms, double boost);

  std::size_t client_count() const override { return base_->client_count(); }
  double rate(std::size_t i, double time_ms) const override;
  double max_rate(std::size_t i) const override;
  double data_per_access(std::size_t i) const override { return base_->data_per_access(i); }

 private:
  std::unique_ptr<Workload> base_;
  std::vector<bool> affected_;
  double start_ms_, end_ms_, boost_;
};

/// One fleet-wide request arrival: which client, and when.
struct Arrival {
  std::size_t client = 0;
  double at_ms = 0.0;
};

/// Samples every client's arrivals over [t0, t1) — one decorrelated fork of
/// `root` per client, so each client's stream is independent of the others
/// and of iteration order — and merges them into a single time-ordered
/// schedule (ties break by client index). This is the request stream the
/// serving data plane replays: the same per-client sampling the scenario
/// engine performs, flattened for callers without a simulator.
std::vector<Arrival> sample_fleet_arrivals(const Workload& workload, double t0, double t1,
                                           const Rng& root);

}  // namespace geored::wl
