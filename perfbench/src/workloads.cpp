#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

#include "common/random.h"
#include "core/fleet_manager.h"
#include "core/replication_manager.h"
#include "net/rpc_collector.h"
#include "scenario/runner.h"
#include "serve/request_router.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/kvstore.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace perfbench {

using namespace geored;

namespace {

constexpr double kEpochMs = 60'000.0;
/// Construction seed of the program objects (initial placements, k-means
/// seeding). Fixed like the world: the workload seed drives the request
/// streams (and the RPC fault schedule), so runs with different seeds differ
/// in their inputs, not in which local optimum the placement starts from.
constexpr std::uint64_t kProgramSeed = 42;

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, format, a, b, c);
  return buffer;
}

double per(double total, double count) { return count > 0.0 ? total / count : 0.0; }

double to_d(std::uint64_t value) { return static_cast<double>(value); }

/// Everything one round measured. Wall fields pool across rounds; virtual
/// fields are compared through the digest and reported from the first
/// round.
struct RoundRecord {
  Digest digest;
  Accounting accounting;
  std::vector<std::string> violations;
  std::vector<double> epoch_ms;
  /// Operations per wall second of each epoch (serving plus epoch work).
  std::vector<double> epoch_rate;
  /// Reference-kernel time of each epoch: the mean of the untimed kernel
  /// runs just before and just after it (see ReferenceClock).
  std::vector<double> reference_ms;
  double timed_ms = 0.0;
  std::uint64_t ops = 0;

  // Virtual (deterministic) results of the round.
  std::size_t epochs = 0;
  std::vector<float> read_ms;  ///< float halves the largest buffer
  std::vector<double> write_ms;
  double delay_sum_ms = 0.0;
  std::uint64_t delay_count = 0;
  double summary_bytes = 0.0;
  double migration_bytes = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t admitted = 0;
  std::uint64_t spilled = 0;
  double wait_sum_ms = 0.0;
  std::size_t replicas_moved = 0;
  std::size_t stale_sources = 0;
  std::size_t lost_sources = 0;
  std::uint64_t net_sent = 0;
  std::uint64_t net_ok = 0;
  std::uint64_t net_retries = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t access_bytes = 0;
  /// Estimate made for the placement in force vs. the delay then measured.
  double estimate_sum_ms = 0.0;
  double measured_sum_ms = 0.0;
  std::size_t estimate_pairs = 0;

  // Observational per-epoch stage times from EpochReport::stages.
  core::EpochStageTrace stages;
  std::size_t stage_epochs = 0;

  void add_stages(const core::EpochStageTrace& s) {
    stages.ingest_flush_ms += s.ingest_flush_ms;
    stages.collect_ms += s.collect_ms;
    stages.propose_ms += s.propose_ms;
    stages.gate_ms += s.gate_ms;
    stages.adopt_ms += s.adopt_ms;
  }
  double mean_delay_ms() const { return per(delay_sum_ms, to_d(delay_count)); }
};

double adopted_estimate(const core::EpochReport& report) {
  return report.decision.migrate ? report.new_estimated_delay_ms
                                 : report.old_estimated_delay_ms;
}

void digest_placement(Digest& digest, const place::Placement& placement) {
  digest.add_u64(placement.size());
  for (const auto node : placement) digest.add_u64(node);
}

void digest_histogram(Digest& digest, const serve::LatencyHistogram& histogram) {
  for (std::size_t b = 0; b < serve::LatencyHistogram::kBuckets; ++b) {
    const std::uint64_t count = histogram.bucket_count(b);
    if (count == 0) continue;
    digest.add_u64(b);
    digest.add_u64(count);
  }
}

/// Per-epoch wall samples, restated at reference speed when `scaled` (rates
/// divide by the factor, times multiply).
std::vector<double> at_reference_speed(const std::vector<double>& samples,
                                       const std::vector<double>& reference_ms, bool scaled,
                                       bool rate) {
  std::vector<double> out = samples;
  if (!scaled) return out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double factor = reference_scale(reference_ms[i]);
    out[i] = rate ? out[i] / factor : out[i] * factor;
  }
  return out;
}

/// Epoch time metrics over every epoch of the run. A CPU-bound epoch is
/// restated at reference speed (`scaled`): the machine's speed changes over
/// seconds to minutes and would otherwise decide the median. An epoch that
/// mostly waits is not, as waiting does not slow down with the machine.
void add_epoch_metrics(MetricSet& metrics, const RoundRecord& pooled, bool scaled) {
  const std::vector<double> samples =
      at_reference_speed(pooled.epoch_ms, pooled.reference_ms, scaled, false);
  const char* speed = scaled ? "at reference speed" : "wall";
  metrics.add("epoch_ms_p50", quantile(samples, 0.5), "ms",
              fmt("median of %.0f epochs, ", to_d(samples.size())) + speed +
                  fmt("; raw median %.6g; reference kernel median %.6g ms",
                      quantile(pooled.epoch_ms, 0.5), quantile(pooled.reference_ms, 0.5)));
  const Tail tail = tail_percentile(samples);
  metrics.add("epoch_ms_tail", tail.value, "ms",
              fmt("p%.0f of %.0f epochs, %.0f above, ", tail.percentile, to_d(tail.samples),
                  to_d(tail.above)) + speed);
}

void add_read_metrics(MetricSet& metrics, const std::vector<float>& samples) {
  std::vector<double> read_ms(samples.begin(), samples.end());
  std::sort(read_ms.begin(), read_ms.end());
  const std::string note = fmt("%.0f reads", to_d(read_ms.size()));
  metrics.add("read_ms_p50", quantile_sorted(read_ms, 0.5), "ms", note);
  metrics.add("read_ms_p99", quantile_sorted(read_ms, 0.99), "ms", note);
}

/// Throughput: the median over every epoch of the run of its operations
/// per second at reference speed (see add_epoch_metrics for why); the
/// pooled wall rate is kept in the note.
void add_rate_metric(MetricSet& metrics, const RoundRecord& pooled) {
  const std::vector<double> rates =
      at_reference_speed(pooled.epoch_rate, pooled.reference_ms, true, true);
  metrics.add("ops_per_s", quantile(rates, 0.5), "1/s",
              fmt("median of %.0f epochs at reference speed; raw median %.6g; pooled wall %.6g",
                  to_d(rates.size()), quantile(pooled.epoch_rate, 0.5),
                  per(to_d(pooled.ops), pooled.timed_ms / 1000.0)));
}

/// Per-layer metrics read from EpochReport::stages (no in-program spans).
void add_stage_metrics(MetricSet& layers, const RoundRecord& pooled) {
  const auto n = static_cast<double>(std::max<std::size_t>(pooled.stage_epochs, 1));
  layers.add("core.collect_ms", pooled.stages.collect_ms / n, "ms");
  layers.add("core.propose_ms", pooled.stages.propose_ms / n, "ms");
  layers.add("core.gate_ms", pooled.stages.gate_ms / n, "ms");
  layers.add("core.adopt_ms", pooled.stages.adopt_ms / n, "ms");
}

void add_placement_metrics(MetricSet& layers, const RoundRecord& round) {
  const double estimated = per(round.estimate_sum_ms, to_d(round.estimate_pairs));
  const double measured = per(round.measured_sum_ms, to_d(round.estimate_pairs));
  layers.add("placement.estimated_delay_ms", estimated, "ms");
  layers.add("placement.estimate_error", measured > 0.0 ? estimated / measured - 1.0 : 0.0,
             "ratio");
  layers.add("core.replicas_moved", to_d(round.replicas_moved), "count");
  layers.add("core.stale_sources", to_d(round.stale_sources), "count");
  layers.add("core.lost_sources", to_d(round.lost_sources), "count");
}

/// Brackets each epoch with untimed reference-kernel runs: an epoch's
/// reference time is the mean of the runs just before and just after it, so
/// a change of machine speed during the epoch is split between the two.
class ReferenceClock {
 public:
  ReferenceClock() : before_ms_(run_reference_kernel().ms) {}

  /// Call when an epoch's timed work has ended. Records the epoch's
  /// reference time and returns the wall time the kernel took, which the
  /// caller keeps out of its timed totals.
  double close_epoch(RoundRecord& rec) {
    const double after_ms = run_reference_kernel().ms;
    rec.reference_ms.push_back((before_ms_ + after_ms) / 2.0);
    before_ms_ = after_ms;
    return after_ms;
  }

 private:
  double before_ms_;
};

/// Shared round loop: runs whole rounds until the time is up, pools wall
/// metrics, and checks that every round reproduces the first one's digest.
class RoundWorkload : public Workload {
 public:
  explicit RoundWorkload(const Options& options) : options_(options) {}

  PhaseResult run(Tracer& tracer) override {
    const double start = now_ms();
    const double deadline = start + options_.seconds * 1000.0;
    RoundRecord first;
    RoundRecord pooled;
    PhaseResult out;
    for (std::size_t r = 0;; ++r) {
      if (r > 0) construct();
      RoundRecord record = round(tracer, r);
      pooled.epoch_ms.insert(pooled.epoch_ms.end(), record.epoch_ms.begin(),
                             record.epoch_ms.end());
      pooled.epoch_rate.insert(pooled.epoch_rate.end(), record.epoch_rate.begin(),
                               record.epoch_rate.end());
      pooled.reference_ms.insert(pooled.reference_ms.end(), record.reference_ms.begin(),
                                 record.reference_ms.end());
      pooled.timed_ms += record.timed_ms;
      pooled.ops += record.ops;
      pooled.accounting.merge(record.accounting);
      pooled.add_stages(record.stages);
      pooled.stage_epochs += record.stage_epochs;
      for (auto& violation : record.violations) {
        out.violations.push_back("round " + std::to_string(r) + ": " + violation);
      }
      ++out.rounds;
      if (r == 0) {
        first = std::move(record);
      } else if (record.digest.value() != first.digest.value()) {
        out.violations.push_back("round " + std::to_string(r) + " digest " +
                                 record.digest.hex() + " differs from round 0 digest " +
                                 first.digest.hex());
      }
      if (options_.tiny || now_ms() >= deadline) break;
    }
    out.accounting = pooled.accounting;
    out.digest = first.digest.hex();
    out.epochs = pooled.epoch_ms.size();
    out.timed_ms = pooled.timed_ms;
    out.ops = pooled.ops;
    report(out, first, pooled, tracer);
    return out;
  }

 protected:
  /// Builds fresh program objects for the next round.
  virtual void construct() = 0;
  /// Runs one complete round; rounds are the unit of work, so every check
  /// runs on the workload as designed, never on a round cut short.
  virtual RoundRecord round(Tracer& tracer, std::size_t index) = 0;
  /// Fills the metric sets from the first round and the pooled wall data.
  virtual void report(PhaseResult& out, const RoundRecord& first, const RoundRecord& pooled,
                      const Tracer& tracer) = 0;

  Options options_;
  const World* world_ = nullptr;
};

// ---------------------------------------------------------------------------
// serve_steady: the data plane. Poisson arrivals -> RequestRouter (spill
// admission) -> complete with the true RTT -> record_access_batch per
// replica; every epoch flush_ingest, run_epoch over an RPC collector with
// fail-fast faults, and set_replicas.
// ---------------------------------------------------------------------------
class ServeSteady final : public RoundWorkload {
 public:
  explicit ServeSteady(const Options& options) : RoundWorkload(options) {
    accesses_per_epoch_ = options.tiny ? 20'000 : 1'000'000;
    epochs_per_round_ = options.tiny ? 2 : 4;
  }

  void prepare(const World& world) override {
    world_ = &world;
    const double clients = to_d(world.client_count());
    demand_ = wl::make_uniform_workload(world.client_count(),
                                        to_d(accesses_per_epoch_) / kEpochMs / clients,
                                        kRateSigma, world.demand_seed);
    construct();
  }

 private:
  static constexpr std::size_t kDegree = 5;
  static constexpr std::size_t kMicroClusters = 12;
  static constexpr double kRateSigma = 0.5;
  static constexpr std::size_t kChunk = 4096;
  static constexpr std::size_t kQueueCap = 64;
  /// Service time as a multiple of the fleet's mean inter-arrival time:
  /// with k = 5 the busiest replica then runs close to saturation and
  /// spills a small share of its requests to its second-nearest neighbour.
  static constexpr double kServiceInterarrivals = 2.3;

  core::ManagerConfig manager_config() const {
    core::ManagerConfig config;
    config.replication_degree = kDegree;
    config.summarizer.max_clusters = kMicroClusters;
    return config;
  }

  void construct() override {
    const core::ManagerConfig config = manager_config();
    core::EpochPipeline pipeline = core::standard_pipeline(config);
    // Fail-fast faults only: each is detected at once and retried. A drop
    // would wait out the real client timeout and time a timer instead.
    net::RpcCollectorConfig rpc_config;
    rpc_config.faults.truncate = 0.02;
    rpc_config.faults.disconnect = 0.02;
    rpc_config.faults.duplicate = 0.02;
    rpc_config.faults.seed = options_.seed;
    auto rpc = std::make_unique<net::RpcCollector>(rpc_config);
    rpc_ = rpc.get();
    pipeline.collector = std::move(rpc);
    manager_ = std::make_unique<core::ReplicationManager>(world_->candidates, config,
                                                          kProgramSeed, std::move(pipeline));
    // Warm-up epoch: the steady state starts from a placement learned from
    // a quarter epoch of this workload's own demand, not a random one.
    const Rng root(options_.seed);
    const auto warm = wl::sample_fleet_arrivals(*demand_, 0.0, kEpochMs / 4.0, root.fork(0));
    for (const auto& arrival : warm) {
      manager_->serve(world_->client_points.point(arrival.client));
    }
    adopted_estimate_ = adopted_estimate(manager_->run_epoch());

    serve::ServeConfig serve_config;
    serve_config.service_ms =
        kServiceInterarrivals * kEpochMs / to_d(accesses_per_epoch_);
    serve_config.queue_cap = kQueueCap;
    serve_config.policy = serve::ServeConfig::Policy::kSpill;
    router_ = std::make_unique<serve::RequestRouter>(serve_config);
    sync_router();
  }

  void sync_router() {
    std::vector<serve::ReplicaSpec> replicas;
    slot_of_.assign(world_->dcs, -1);
    for (const auto node : manager_->placement()) {
      slot_of_[node] = static_cast<int>(replicas.size());
      replicas.push_back({node, world_->coords[node].position});
    }
    router_->set_replicas(replicas);
  }

  RoundRecord round(Tracer& tracer, std::size_t index) override {
    RoundRecord rec;
    const Rng root(options_.seed);
    const PointSet& points = world_->client_points;
    const std::size_t dim = points.dim();
    std::vector<std::size_t> indices(kChunk);
    std::vector<double> nows(kChunk);
    std::vector<serve::RouteDecision> decisions(kChunk);
    std::vector<PointSet> batches(kDegree, PointSet(dim));
    std::vector<topo::NodeId> batch_node(kDegree);
    double pending_estimate = adopted_estimate_;
    double untimed_ms = 0.0;
    ReferenceClock reference;

    const double round_start = now_ms();
    for (std::size_t e = 1; e <= epochs_per_round_; ++e) {
      tracer.set_epoch(index * 1000 + e);
      const double epoch_start = now_ms();
      const Tracer::Scope epoch_span(tracer, "epoch");
      const double t0 = static_cast<double>(e) * kEpochMs;
      std::vector<wl::Arrival> arrivals;
      {
        const Tracer::Scope span(tracer, "workload.sample");
        arrivals = wl::sample_fleet_arrivals(*demand_, t0, t0 + kEpochMs, root.fork(e));
      }
      std::uint64_t recorded = 0;
      double epoch_delay = 0.0;
      std::uint64_t epoch_admitted = 0;
      for (std::size_t begin = 0; begin < arrivals.size(); begin += kChunk) {
        const std::size_t count = std::min(kChunk, arrivals.size() - begin);
        for (std::size_t j = 0; j < count; ++j) {
          indices[j] = arrivals[begin + j].client;
          nows[j] = arrivals[begin + j].at_ms;
        }
        {
          const Tracer::Scope span(tracer, "serve.route");
          router_->route_batch(points, indices.data(), count, nows.data(), decisions.data());
        }
        {
          const Tracer::Scope span(tracer, "serve.complete");
          for (std::size_t j = 0; j < count; ++j) {
            const serve::RouteDecision& d = decisions[j];
            switch (d.outcome) {
              case serve::RouteDecision::Outcome::kLost: ++rec.accounting.lost; continue;
              case serve::RouteDecision::Outcome::kRejected:
                ++rec.accounting.rejected;
                continue;
              case serve::RouteDecision::Outcome::kSpilled: ++rec.spilled; break;
              case serve::RouteDecision::Outcome::kAdmitted: break;
            }
            if (d.replica >= slot_of_.size() || slot_of_[d.replica] < 0) {
              rec.violations.push_back("admitted request served by non-replica " +
                                       std::to_string(d.replica));
              continue;
            }
            const double rtt = world_->topology.rtt_ms(world_->client_node(indices[j]),
                                                       d.replica);
            const double latency = router_->complete(d, rtt);
            rec.read_ms.push_back(static_cast<float>(latency));
            rec.wait_sum_ms += d.wait_ms;
            epoch_delay += rtt;
            ++epoch_admitted;
          }
        }
        {
          const Tracer::Scope span(tracer, "bench.group");
          for (auto& batch : batches) batch.clear();
          for (std::size_t j = 0; j < count; ++j) {
            const serve::RouteDecision& d = decisions[j];
            if (!d.admitted() || d.replica >= slot_of_.size() || slot_of_[d.replica] < 0) continue;
            const auto slot = static_cast<std::size_t>(slot_of_[d.replica]);
            batches[slot].push_back_row(points.row(indices[j]), dim);
            batch_node[slot] = d.replica;
          }
        }
        for (std::size_t s = 0; s < batches.size(); ++s) {
          if (batches[s].empty()) continue;
          const Tracer::Scope span(tracer, "core.record");
          manager_->record_access_batch(batch_node[s], batches[s]);
          recorded += batches[s].size();
        }
      }
      rec.accounting.attempted += arrivals.size();
      rec.accounting.completed += epoch_admitted;
      rec.admitted += epoch_admitted;
      rec.delay_sum_ms += epoch_delay;
      rec.delay_count += epoch_admitted;
      if (epoch_admitted > 0) {
        rec.estimate_sum_ms += pending_estimate;
        rec.measured_sum_ms += epoch_delay / to_d(epoch_admitted);
        ++rec.estimate_pairs;
      }

      const serve::RequestRouter::Stats stats = router_->stats();
      if (stats.requests != arrivals.size() ||
          stats.requests != stats.admitted + stats.rejected + stats.lost) {
        rec.violations.push_back("epoch " + std::to_string(e) + ": router requests " +
                                 std::to_string(stats.requests) + " != arrivals " +
                                 std::to_string(arrivals.size()));
      }
      digest_histogram(rec.digest, router_->histogram());
      router_->reset_epoch();

      {
        const Tracer::Scope span(tracer, "core.flush");
        manager_->flush_ingest();
      }
      core::EpochReport report;
      {
        const Tracer::Scope span(tracer, "core.run_epoch");
        const double start = now_ms();
        report = manager_->run_epoch();
        rec.epoch_ms.push_back(now_ms() - start);
      }
      double epoch_untimed_ms = 0.0;
      if (tracer.enabled()) {
        // Traced-only work, kept out of the timed total (as in fleet_replan).
        const double start = now_ms();
        {
          const Tracer::Scope span(tracer, "core.degree_curve");
          (void)manager_->delay_by_degree_curve(1, 7);
        }
        epoch_untimed_ms = now_ms() - start;
        untimed_ms += epoch_untimed_ms;
      }
      if (report.epoch_accesses != recorded) {
        rec.violations.push_back("epoch " + std::to_string(e) + ": recorded " +
                                 std::to_string(recorded) + " accesses, epoch reports " +
                                 std::to_string(report.epoch_accesses));
      }
      const net::RpcStats rpc = rpc_->last_stats();
      rec.net_sent += rpc.requests_sent;
      rec.net_ok += rpc.responses_ok;
      rec.net_retries += rpc.retries;
      {
        const Tracer::Scope span(tracer, "serve.set_replicas");
        sync_router();
      }
      pending_estimate = adopted_estimate(report);
      rec.add_stages(report.stages);
      ++rec.stage_epochs;
      rec.summary_bytes += to_d(report.summary_bytes);
      rec.replicas_moved += report.replicas_moved;
      rec.stale_sources += report.stale_sources;
      rec.lost_sources += report.lost_sources;
      digest_placement(rec.digest, report.adopted_placement);
      rec.digest.add_u64(report.summary_bytes);
      rec.epoch_rate.push_back(to_d(epoch_admitted) /
                               ((now_ms() - epoch_start - epoch_untimed_ms) / 1000.0));
      untimed_ms += reference.close_epoch(rec);
      ++rec.epochs;
    }
    rec.timed_ms = now_ms() - round_start - untimed_ms;
    rec.ops = rec.accounting.completed;
    rec.digest.add_double(rec.delay_sum_ms);
    return rec;
  }

  void report(PhaseResult& out, const RoundRecord& first, const RoundRecord& pooled,
              const Tracer& tracer) override {
    MetricSet& e2e = out.end_to_end;
    add_rate_metric(e2e, pooled);
    add_epoch_metrics(e2e, pooled, false);
    add_read_metrics(e2e, first.read_ms);
    e2e.add("mean_access_delay_ms", first.mean_delay_ms(), "ms");
    e2e.add("summary_bytes_per_epoch", per(first.summary_bytes, to_d(first.epochs)), "B");
    e2e.add("failed_fraction", pooled.accounting.failed_fraction(), "ratio");
    if (!tracer.enabled()) return;

    MetricSet& layers = out.per_layer;
    const double accesses = to_d(pooled.accounting.attempted);
    const double served = to_d(pooled.accounting.completed);
    const double epochs = to_d(pooled.epoch_ms.size());
    layers.add("workload.sample_ns_per_access",
               per(tracer.total("workload.sample").total_ms * 1e6, accesses), "ns");
    layers.add("serve.route_ns_per_access",
               per(tracer.total("serve.route").total_ms * 1e6, accesses), "ns");
    layers.add("serve.complete_ns_per_access",
               per(tracer.total("serve.complete").total_ms * 1e6, accesses), "ns");
    layers.add("serve.admitted", to_d(first.admitted), "count");
    layers.add("serve.spilled", to_d(first.spilled), "count");
    layers.add("serve.rejected", to_d(first.accounting.rejected), "count");
    layers.add("serve.queue_wait_ms_mean", per(first.wait_sum_ms, to_d(first.admitted)), "ms");
    layers.add("bench.group_ns_per_access",
               per(tracer.total("bench.group").total_ms * 1e6, accesses), "ns");
    layers.add("core.record_ns_per_access",
               per(tracer.total("core.record").total_ms * 1e6, served), "ns");
    layers.add("core.flush_ms", per(tracer.total("core.flush").total_ms, epochs), "ms");
    add_stage_metrics(layers, pooled);
    layers.add("core.degree_curve_ms",
               per(tracer.total("core.degree_curve").total_ms, epochs), "ms");
    add_placement_metrics(layers, first);
    layers.add("net.requests_sent", to_d(first.net_sent), "count");
    layers.add("net.retries", to_d(first.net_retries), "count");
    layers.add("net.useful_ratio", per(to_d(first.net_ok), to_d(first.net_sent)), "ratio");
  }

  std::size_t accesses_per_epoch_;
  std::size_t epochs_per_round_;
  std::unique_ptr<wl::StaticWorkload> demand_;
  std::unique_ptr<core::ReplicationManager> manager_;
  net::RpcCollector* rpc_ = nullptr;
  std::unique_ptr<serve::RequestRouter> router_;
  std::vector<int> slot_of_;
  double adopted_estimate_ = 0.0;
};

// ---------------------------------------------------------------------------
// fleet_replan: the control plane. A 32-group FleetManager under a replica
// budget, direct collection, group-weight churn and rolling single-DC
// exclusions; serving is a thin FleetManager::serve per access.
// ---------------------------------------------------------------------------
class FleetReplan final : public RoundWorkload {
 public:
  explicit FleetReplan(const Options& options) : RoundWorkload(options) {
    accesses_per_epoch_ = options.tiny ? 3'000 : 30'000;
    epochs_per_round_ = options.tiny ? 4 : 24;
  }

  void prepare(const World& world) override {
    world_ = &world;
    demand_ = wl::make_uniform_workload(
        world.client_count(), to_d(accesses_per_epoch_) / kEpochMs / to_d(world.client_count()),
        0.5, world.demand_seed);
    popularity_ = std::make_unique<ZipfSampler>(kObjects, 0.9);
    client_coords_.clear();
    for (std::size_t c = 0; c < world.client_count(); ++c) {
      client_coords_.push_back(world.client_points.point(c));
    }
    construct();
  }

 private:
  static constexpr std::size_t kGroups = 32;
  static constexpr std::size_t kObjects = 10'000;
  static constexpr std::size_t kChurnEvery = 8;

  void construct() override {
    core::FleetConfig config;
    config.groups = kGroups;
    config.manager.replication_degree = 3;
    config.manager.summarizer.max_clusters = 32;
    config.replica_budget = 96;
    config.min_degree = 1;
    config.max_degree = 7;
    fleet_ = std::make_unique<core::FleetManager>(world_->candidates, config, kProgramSeed);
  }

  RoundRecord round(Tracer& tracer, std::size_t index) override {
    RoundRecord rec;
    const Rng root(options_.seed);
    std::vector<double> pending_estimate(kGroups, 0.0);
    bool have_estimate = false;
    double untimed_ms = 0.0;
    ReferenceClock reference;
    const double round_start = now_ms();
    for (std::size_t e = 1; e <= epochs_per_round_; ++e) {
      tracer.set_epoch(index * 1000 + e);
      const double epoch_start = now_ms();
      const Tracer::Scope epoch_span(tracer, "epoch");
      const double t0 = static_cast<double>(e) * kEpochMs;
      std::vector<wl::Arrival> arrivals;
      std::vector<std::uint64_t> objects;
      {
        const Tracer::Scope span(tracer, "workload.sample");
        arrivals = wl::sample_fleet_arrivals(*demand_, t0, t0 + kEpochMs, root.fork(2 * e));
        Rng object_rng = root.fork(2 * e + 1);
        objects.resize(arrivals.size());
        for (auto& object : objects) object = popularity_->sample(object_rng);
      }
      std::vector<double> group_delay(kGroups, 0.0);
      std::vector<std::uint64_t> group_accesses(kGroups, 0);
      {
        const Tracer::Scope span(tracer, "core.serve");
        for (std::size_t j = 0; j < arrivals.size(); ++j) {
          const std::size_t client = arrivals[j].client;
          const topo::NodeId replica = fleet_->serve(objects[j], client_coords_[client]);
          const double rtt = world_->topology.rtt_ms(world_->client_node(client), replica);
          rec.read_ms.push_back(static_cast<float>(rtt));
          const std::size_t group = fleet_->group_of(objects[j]);
          group_delay[group] += rtt;
          ++group_accesses[group];
        }
      }
      rec.accounting.attempted += arrivals.size();
      rec.accounting.completed += arrivals.size();
      for (std::size_t g = 0; g < kGroups; ++g) {
        rec.delay_sum_ms += group_delay[g];
        rec.delay_count += group_accesses[g];
        if (have_estimate && group_accesses[g] > 0) {
          rec.estimate_sum_ms += pending_estimate[g] * to_d(group_accesses[g]);
          rec.measured_sum_ms += group_delay[g];
          rec.estimate_pairs += group_accesses[g];
        }
      }

      if (e % kChurnEvery == 0) {
        const std::size_t hot = (e / kChurnEvery) % kGroups;
        for (std::size_t g = 0; g < kGroups; ++g) fleet_->set_group_weight(g, g == hot ? 4.0 : 1.0);
      }
      const std::set<topo::NodeId> excluded = {
          static_cast<topo::NodeId>(e % world_->candidates.size())};
      {
        const Tracer::Scope span(tracer, "core.flush");
        for (std::size_t g = 0; g < kGroups; ++g) fleet_->group(g).flush_ingest();
      }
      core::FleetEpochReport report;
      double epoch_untimed_ms = 0.0;
      {
        const Tracer::Scope span(tracer, "core.run_epochs");
        const double start = now_ms();
        report = fleet_->run_epochs(excluded);
        rec.epoch_ms.push_back(now_ms() - start);
      }
      if (tracer.enabled()) {
        // Extra work only the traced run does; kept out of the timed total
        // so the tracing overhead compares like with like.
        const double start = now_ms();
        {
          const Tracer::Scope span(tracer, "core.degree_curve");
          for (std::size_t g = 0; g < kGroups; ++g) {
            (void)fleet_->group(g).delay_by_degree_curve(1, 7);
          }
        }
        epoch_untimed_ms = now_ms() - start;
        untimed_ms += epoch_untimed_ms;
      }
      std::uint64_t reported = 0;
      for (std::size_t g = 0; g < kGroups; ++g) {
        const core::EpochReport& group_report = report.group_reports[g];
        reported += group_report.epoch_accesses;
        if (group_report.epoch_accesses != group_accesses[g]) {
          rec.violations.push_back("epoch " + std::to_string(e) + " group " +
                                   std::to_string(g) + ": served " +
                                   std::to_string(group_accesses[g]) + ", epoch reports " +
                                   std::to_string(group_report.epoch_accesses));
        }
        for (const auto node : group_report.adopted_placement) {
          if (excluded.contains(node)) {
            rec.violations.push_back("epoch " + std::to_string(e) +
                                     ": excluded data center kept a replica");
          }
        }
        pending_estimate[g] = adopted_estimate(group_report);
        rec.add_stages(group_report.stages);
        rec.summary_bytes += to_d(group_report.summary_bytes);
        rec.replicas_moved += group_report.replicas_moved;
        rec.stale_sources += group_report.stale_sources;
        rec.lost_sources += group_report.lost_sources;
        digest_placement(rec.digest, group_report.adopted_placement);
        rec.digest.add_u64(group_report.summary_bytes);
      }
      ++rec.stage_epochs;
      have_estimate = true;
      if (reported != arrivals.size() || report.total_accesses != arrivals.size()) {
        rec.violations.push_back("epoch " + std::to_string(e) + ": served " +
                                 std::to_string(arrivals.size()) + ", fleet reports " +
                                 std::to_string(report.total_accesses));
      }
      if (report.allocation.has_value()) {
        for (const auto degree : report.allocation->degree_per_group) rec.digest.add_u64(degree);
      }
      rec.epoch_rate.push_back(to_d(arrivals.size()) /
                               ((now_ms() - epoch_start - epoch_untimed_ms) / 1000.0));
      untimed_ms += reference.close_epoch(rec);
      ++rec.epochs;
    }
    rec.timed_ms = now_ms() - round_start - untimed_ms;
    rec.ops = rec.accounting.completed;
    rec.digest.add_double(rec.delay_sum_ms);
    return rec;
  }

  void report(PhaseResult& out, const RoundRecord& first, const RoundRecord& pooled,
              const Tracer& tracer) override {
    MetricSet& e2e = out.end_to_end;
    add_rate_metric(e2e, pooled);
    add_epoch_metrics(e2e, pooled, true);
    add_read_metrics(e2e, first.read_ms);
    e2e.add("mean_access_delay_ms", first.mean_delay_ms(), "ms");
    e2e.add("summary_bytes_per_epoch", per(first.summary_bytes, to_d(first.epochs)), "B");
    e2e.add("failed_fraction", pooled.accounting.failed_fraction(), "ratio");
    if (!tracer.enabled()) return;

    MetricSet& layers = out.per_layer;
    const double accesses = to_d(pooled.accounting.attempted);
    const double epochs = to_d(pooled.epoch_ms.size());
    layers.add("workload.sample_ns_per_access",
               per(tracer.total("workload.sample").total_ms * 1e6, accesses), "ns");
    layers.add("core.record_ns_per_access",
               per(tracer.total("core.serve").total_ms * 1e6, accesses), "ns");
    layers.add("core.flush_ms", per(tracer.total("core.flush").total_ms, epochs), "ms");
    add_stage_metrics(layers, pooled);
    layers.add("core.degree_curve_ms",
               per(tracer.total("core.degree_curve").total_ms, epochs), "ms");
    add_placement_metrics(layers, first);
    // Layers this workload never calls: serving goes through
    // FleetManager::serve, not the request router, and collection is
    // direct. Zero time and zero requests, so a change to either layer
    // shows here as no effect.
    const std::string unused = "layer not called by this workload";
    layers.add("serve.route_ns_per_access", 0.0, "ns", unused);
    layers.add("serve.complete_ns_per_access", 0.0, "ns", unused);
    layers.add("serve.admitted", 0.0, "count", unused);
    layers.add("serve.spilled", 0.0, "count", unused);
    layers.add("serve.rejected", 0.0, "count", unused);
    layers.add("serve.queue_wait_ms_mean", 0.0, "ms", unused);
    layers.add("net.requests_sent", 0.0, "count", unused);
    layers.add("net.retries", 0.0, "count", unused);
    layers.add("net.useful_ratio", 0.0, "ratio", unused);
  }

  std::size_t accesses_per_epoch_;
  std::size_t epochs_per_round_;
  std::unique_ptr<wl::StaticWorkload> demand_;
  std::unique_ptr<ZipfSampler> popularity_;
  std::vector<Point> client_coords_;
  std::unique_ptr<core::FleetManager> fleet_;
};

// ---------------------------------------------------------------------------
// kv_quorum: writes beside reads. A ReplicatedKvStore (16 groups, n=3, r=1,
// w=2) on the simulator replays a pre-generated session trace; a placement
// epoch every 60 s virtual migrates group data over sim::Network.
// ---------------------------------------------------------------------------
class KvQuorum final : public RoundWorkload {
 public:
  explicit KvQuorum(const Options& options) : RoundWorkload(options) {
    ops_per_epoch_ = options.tiny ? 1'500 : 20'000;
    epochs_per_round_ = options.tiny ? 3 : 24;
  }

  void prepare(const World& world) override {
    world_ = &world;
    wl::SessionTraceConfig config;
    // Follow-the-sun: the trace's clients are one quarter of the world's,
    // mapped onto a longitude-ordered window that moves a quarter of the way
    // round every kShiftEpochs epochs, so placements keep migrating.
    std::vector<std::size_t> order(world.client_count());
    for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return world.topology.node(world.client_node(a)).location.lon_deg <
             world.topology.node(world.client_node(b)).location.lon_deg;
    });
    by_longitude_ = std::move(order);
    config.clients = world.client_count() / 4;
    config.objects = kObjects;
    config.duration_ms = to_d(epochs_per_round_) * kEpochMs;
    config.mean_requests_per_session = 8.0;
    config.session_rate =
        to_d(ops_per_epoch_) / kEpochMs / to_d(config.clients) / 8.0;
    config.zipf_exponent = 0.9;
    config.write_fraction = 0.3;
    config.min_bytes = 64;
    config.max_bytes = 512;
    trace_ = wl::generate_session_trace(config, options_.seed);
    construct();
  }

 private:
  static constexpr std::size_t kObjects = 10'000;
  static constexpr std::size_t kGroups = 16;
  /// One op in this many is traced with issue/run spans (sampled tracing:
  /// a span per op would outweigh the op).
  static constexpr std::size_t kSpanSample = 16;

  const Point& coords_of(topo::NodeId node) const { return world_->coords[node].position; }

  void construct() override {
    store_.reset();
    network_.reset();
    simulator_ = std::make_unique<sim::Simulator>();
    network_ = std::make_unique<sim::Network>(*simulator_, world_->topology);
    store::StoreConfig config;
    config.quorum = {3, 1, 2};
    config.groups = kGroups;
    config.manager.summarizer.max_clusters = 8;
    store_ = std::make_unique<store::ReplicatedKvStore>(*simulator_, *network_,
                                                        world_->candidates, config,
                                                        kProgramSeed);
    // Seed every object once so reads find data.
    const std::string value(128, 's');
    for (store::ObjectId id = 0; id < kObjects; ++id) {
      const topo::NodeId writer = world_->client_node(id % world_->client_count());
      store_->put(writer, coords_of(writer), id, value, [](const store::PutResult&) {});
    }
    simulator_->run();
    // One placement epoch learns from the seeding writes, so the timed
    // epochs start from placed groups rather than one large first flush.
    store_->run_placement_epochs();
    simulator_->run();
    network_->reset_stats();
  }

  /// Callback targets live here so the store's callbacks can reach them.
  struct Replay {
    RoundRecord* rec = nullptr;
    std::vector<store::Version> acked;  ///< newest acknowledged version per object
    std::uint64_t completed = 0;
  };

  RoundRecord round(Tracer& tracer, std::size_t index) override {
    RoundRecord rec;
    Replay replay;
    replay.rec = &rec;
    replay.acked.assign(kObjects, store::Version::zero());
    const double base = std::ceil(simulator_->now() / kEpochMs + 1.0) * kEpochMs;
    double next_epoch = base + kEpochMs;
    std::size_t epoch = 0;
    std::uint64_t issued = 0;
    std::vector<double> pending_estimate(kGroups, 0.0);
    std::vector<double> group_delay(kGroups, 0.0);
    std::vector<std::uint64_t> group_reads(kGroups, 0);
    bool have_estimate = false;

    double window_start = 0.0;
    std::uint64_t window_issued = 0;
    // The reference kernel runs between epoch windows, untimed.
    ReferenceClock reference;
    double untimed_ms = 0.0;
    const auto run_epoch = [&] {
      const Tracer::Scope span(tracer, "store.epoch");
      const double start = now_ms();
      const std::vector<core::EpochReport> reports = store_->run_placement_epochs();
      rec.epoch_ms.push_back(now_ms() - start);
      for (std::size_t g = 0; g < reports.size(); ++g) {
        const core::EpochReport& report = reports[g];
        if (have_estimate && group_reads[g] > 0) {
          rec.estimate_sum_ms += pending_estimate[g] * to_d(group_reads[g]);
          rec.measured_sum_ms += group_delay[g];
          rec.estimate_pairs += group_reads[g];
        }
        pending_estimate[g] = adopted_estimate(report);
        group_reads[g] = 0;
        group_delay[g] = 0.0;
        rec.add_stages(report.stages);
        rec.summary_bytes += to_d(report.summary_bytes);
        rec.replicas_moved += report.replicas_moved;
        rec.stale_sources += report.stale_sources;
        rec.lost_sources += report.lost_sources;
        digest_placement(rec.digest, report.adopted_placement);
        rec.digest.add_u64(report.summary_bytes);
      }
      have_estimate = true;
      ++rec.stage_epochs;
      ++rec.epochs;
      ++epoch;
      const double now = now_ms();
      rec.epoch_rate.push_back(to_d(issued - window_issued) / ((now - window_start) / 1000.0));
      untimed_ms += reference.close_epoch(rec);
      window_start = now_ms();
      window_issued = issued;
      tracer.set_epoch(index * 1000 + epoch);
    };

    const double round_start = now_ms();
    window_start = round_start;
    tracer.set_epoch(index * 1000);
    for (const wl::TraceEvent& event : trace_.events()) {
      const double at = base + event.time_ms;
      while (at >= next_epoch) {
        {
          const Tracer::Scope span(tracer, "sim.drain");
          rec.sim_events += simulator_->run_until(next_epoch);
        }
        run_epoch();
        next_epoch += kEpochMs;
      }
      const bool sampled = tracer.enabled() && issued % kSpanSample == 0;
      {
        const std::uint32_t span = sampled ? tracer.begin("sim.run") : Tracer::kNoParent;
        rec.sim_events += simulator_->run_until(at);
        tracer.end(span);
      }
      const std::size_t quarter =
          static_cast<std::size_t>(event.time_ms / kEpochMs) / kShiftEpochs % 4;
      const std::size_t window = by_longitude_.size() / 4;
      const topo::NodeId client = world_->client_node(
          by_longitude_[(quarter * window + event.client) % by_longitude_.size()]);
      const store::ObjectId object = event.object;
      const std::uint32_t span = sampled ? tracer.begin("store.issue") : Tracer::kNoParent;
      if (event.is_write) {
        store_->put(client, coords_of(client), object, std::string(event.bytes, 'w'),
                    [&replay, object](const store::PutResult& result) {
                      replay.rec->write_ms.push_back(result.latency_ms);
                      replay.acked[object] = std::max(replay.acked[object], result.version);
                      ++replay.completed;
                    });
      } else {
        // The paper's objective: true RTT to the group's nearest replica.
        double nearest = std::numeric_limits<double>::infinity();
        for (const auto node : store_->placement_of_group(store_->group_of(object))) {
          nearest = std::min(nearest, world_->topology.rtt_ms(client, node));
        }
        rec.delay_sum_ms += nearest;
        ++rec.delay_count;
        group_delay[store_->group_of(object)] += nearest;
        ++group_reads[store_->group_of(object)];
        store_->get(client, coords_of(client), object,
                    [&replay](const store::GetResult& result) {
                      replay.rec->read_ms.push_back(static_cast<float>(result.latency_ms));
                      ++replay.rec->reads;
                      if (result.stale) ++replay.rec->stale_reads;
                      ++replay.completed;
                    });
      }
      tracer.end(span);
      ++issued;
    }
    // Close the round's last epoch window.
    {
      const Tracer::Scope span(tracer, "sim.drain");
      rec.sim_events += simulator_->run_until(next_epoch);
    }
    run_epoch();
    {
      const Tracer::Scope span(tracer, "sim.drain");
      rec.sim_events += simulator_->run();
    }
    rec.timed_ms = now_ms() - round_start - untimed_ms;

    rec.accounting.attempted = issued;
    rec.accounting.completed = replay.completed;
    rec.accounting.unfinished = issued - std::min(issued, replay.completed);
    rec.ops = replay.completed;
    const sim::TrafficStats& traffic = network_->stats();
    rec.migration_bytes =
        to_d(traffic.bytes[static_cast<std::size_t>(sim::TrafficClass::kMigration)]);
    rec.access_bytes = traffic.bytes[static_cast<std::size_t>(sim::TrafficClass::kAccess)];

    // Every acknowledged write must be readable at >= its acked version.
    std::vector<store::Version> final_versions(kObjects, store::Version::zero());
    const topo::NodeId reader = world_->client_node(0);
    for (store::ObjectId id = 0; id < kObjects; ++id) {
      store_->get(reader, coords_of(reader), id,
                  [&final_versions, id](const store::GetResult& result) {
                    final_versions[id] = result.value.version;
                  });
    }
    simulator_->run();
    std::size_t unreadable = 0;
    for (store::ObjectId id = 0; id < kObjects; ++id) {
      if (final_versions[id] < replay.acked[id]) ++unreadable;
      rec.digest.add_u64(final_versions[id].logical);
      rec.digest.add_u64(final_versions[id].writer);
    }
    if (unreadable > 0) {
      rec.violations.push_back(std::to_string(unreadable) +
                               " acknowledged writes not readable at their acked version");
    }
    digest_histogram(rec.digest, store_->get_latency_histogram());
    digest_histogram(rec.digest, store_->put_latency_histogram());
    rec.digest.add_double(rec.migration_bytes);
    return rec;
  }

  void report(PhaseResult& out, const RoundRecord& first, const RoundRecord& pooled,
              const Tracer& tracer) override {
    MetricSet& e2e = out.end_to_end;
    add_rate_metric(e2e, pooled);
    add_epoch_metrics(e2e, pooled, true);
    add_read_metrics(e2e, first.read_ms);
    std::vector<double> writes = first.write_ms;
    std::sort(writes.begin(), writes.end());
    const std::string note = fmt("%.0f writes", to_d(writes.size()));
    e2e.add("write_ms_p50", quantile_sorted(writes, 0.5), "ms", note);
    e2e.add("write_ms_p99", quantile_sorted(writes, 0.99), "ms", note);
    e2e.add("mean_access_delay_ms", first.mean_delay_ms(), "ms");
    e2e.add("summary_bytes_per_epoch", per(first.summary_bytes, to_d(first.epochs)), "B");
    e2e.add("migration_bytes_per_epoch", per(first.migration_bytes, to_d(first.epochs)), "B");
    e2e.add("failed_fraction", pooled.accounting.failed_fraction(), "ratio");
    e2e.add("stale_read_fraction", per(to_d(first.stale_reads), to_d(first.reads)), "ratio");
    if (!tracer.enabled()) return;

    MetricSet& layers = out.per_layer;
    const auto issue = tracer.total("store.issue");
    layers.add("store.issue_ns_per_op", per(issue.total_ms * 1e6, to_d(issue.spans)), "ns");
    // Sampled spans: the per-op figures are the sampled means.
    const auto run = tracer.total("sim.run");
    layers.add("sim.run_ns_per_op", per(run.total_ms * 1e6, to_d(run.spans)), "ns");
    layers.add("sim.events_per_op", per(to_d(first.sim_events), to_d(first.accounting.attempted)),
               "count");
    layers.add("sim.access_bytes_per_op",
               per(to_d(first.access_bytes), to_d(first.accounting.attempted)), "B");
    layers.add("store.epoch_ms",
               per(tracer.total("store.epoch").total_ms, to_d(pooled.epoch_ms.size())), "ms");
    layers.add("core.flush_ms", pooled.stages.ingest_flush_ms /
                                    to_d(std::max<std::size_t>(pooled.stage_epochs, 1)),
               "ms");
    add_stage_metrics(layers, pooled);
    add_placement_metrics(layers, first);
  }

  static constexpr std::size_t kShiftEpochs = 4;

  std::size_t ops_per_epoch_;
  std::vector<std::size_t> by_longitude_;  ///< client indices, west to east
  std::size_t epochs_per_round_;
  wl::Trace trace_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<store::ReplicatedKvStore> store_;
};

// ---------------------------------------------------------------------------
// scenario_churn: the scenario runner end to end. A multi-group fleet with
// a budget and a serve block, under diurnal, flash-crowd, outage and
// population events; the world is built inside run_scenario.
// ---------------------------------------------------------------------------
class ScenarioChurn final : public Workload {
 public:
  explicit ScenarioChurn(const Options& options) : options_(options) {}

  bool reports_setup() const override { return false; }

  void prepare(const World&) override {
    config_ = scenario::load_scenario_file(options_.scenario_path);
    config_.seed = options_.seed;
    if (options_.tiny) {
      config_.epochs = 2;
      config_.topology.nodes = 120;
      config_.topology.dcs = 16;
      config_.coords.rounds = 32;
      config_.workload.mean_rate /= 10.0;
      // Tiny worlds have fewer regions; keep only events every world has.
      std::vector<scenario::Event> kept;
      for (const auto& event : config_.events) {
        if (event.region == "*" && !event.node.has_value()) kept.push_back(event);
      }
      config_.events = kept;
    }
  }

  PhaseResult run(Tracer& tracer) override {
    PhaseResult out;
    const double start = now_ms();
    std::string first_jsonl;
    std::vector<double> epoch_ms;
    std::uint64_t accesses = 0;
    double stage_ms = 0.0;
    scenario::ScenarioResult first;
    for (std::size_t r = 0;; ++r) {
      tracer.set_epoch(r);
      scenario::ScenarioResult result;
      double wall = 0.0;
      {
        const Tracer::Scope span(tracer, "scenario.run");
        const double call_start = now_ms();
        result = scenario::run_scenario(config_);
        wall = now_ms() - call_start;
      }
      out.timed_ms += wall;
      ++out.rounds;
      for (const auto& row : result.epochs) {
        epoch_ms.push_back(row.stage_totals.total_ms());
        stage_ms += row.stage_totals.total_ms();
        accesses += row.accesses;
        out.accounting.attempted += row.accesses + row.lost_accesses + row.serve.rejected;
        out.accounting.completed += row.accesses;
        out.accounting.lost += row.lost_accesses;
        out.accounting.rejected += row.serve.rejected;
        if (row.serve.enabled && (row.serve.requests != row.serve.admitted + row.serve.rejected ||
                                  row.serve.admitted != row.accesses)) {
          out.violations.push_back("epoch " + std::to_string(row.epoch) +
                                   ": serve counters do not balance");
        }
      }
      const std::string jsonl = result.jsonl();
      if (r == 0) {
        first_jsonl = jsonl;
        first = std::move(result);
      } else if (jsonl != first_jsonl) {
        out.violations.push_back("round " + std::to_string(r) + " jsonl differs from round 0");
      }
      if (options_.tiny || now_ms() - start >= options_.seconds * 1000.0) break;
    }
    Digest digest;
    digest.add_string(first_jsonl);
    out.digest = digest.hex();
    out.epochs = epoch_ms.size();
    out.ops = accesses;

    double delay_sum = 0.0;
    double estimate_sum = 0.0;
    std::uint64_t first_accesses = 0;
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (const auto& row : first.epochs) {
      delay_sum += row.mean_delay_ms * to_d(row.accesses);
      estimate_sum += row.objective_ms * to_d(row.accesses);
      first_accesses += row.accesses;
      if (row.serve.enabled) {
        p50s.push_back(row.serve.p50_ms);
        p99s.push_back(row.serve.p99_ms);
      }
    }
    MetricSet& e2e = out.end_to_end;
    e2e.add("ops_per_s", per(to_d(accesses), out.timed_ms / 1000.0), "1/s",
            "world build inside the call included");
    e2e.add("epoch_ms_p50", quantile(epoch_ms, 0.5), "ms",
            "EpochRow stage totals, summed over groups");
    const Tail tail = tail_percentile(epoch_ms);
    e2e.add("epoch_ms_tail", tail.value, "ms",
            fmt("p%.0f of %.0f epochs, %.0f above", tail.percentile, to_d(tail.samples),
                to_d(tail.above)));
    e2e.add("read_ms_p50", quantile(p50s, 0.5), "ms", "median over epochs of histogram p50");
    e2e.add("read_ms_p99", quantile(p99s, 0.5), "ms", "median over epochs of histogram p99");
    e2e.add("mean_access_delay_ms", per(delay_sum, to_d(first_accesses)), "ms");
    e2e.add("failed_fraction", out.accounting.failed_fraction(), "ratio");
    if (!tracer.enabled()) return out;

    MetricSet& layers = out.per_layer;
    const double run_ms = tracer.total("scenario.run").total_ms;
    layers.add("scenario.orchestration_ns_per_access",
               per((run_ms - stage_ms) * 1e6, to_d(accesses)), "ns");
    layers.add("placement.estimated_delay_ms", per(estimate_sum, to_d(first_accesses)), "ms");
    layers.add("placement.estimate_error",
               delay_sum > 0.0 ? estimate_sum / delay_sum - 1.0 : 0.0, "ratio");
    return out;
  }

 private:
  Options options_;
  scenario::ScenarioConfig config_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"serve_steady", "fleet_replan", "kv_quorum", "scenario_churn"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& options) {
  if (name == "serve_steady") return std::make_unique<ServeSteady>(options);
  if (name == "fleet_replan") return std::make_unique<FleetReplan>(options);
  if (name == "kv_quorum") return std::make_unique<KvQuorum>(options);
  if (name == "scenario_churn") return std::make_unique<ScenarioChurn>(options);
  return nullptr;
}

WorldSpec world_spec(const Options& options) {
  WorldSpec spec;
  if (options.tiny) {
    spec.nodes = 120;
    spec.dcs = 16;
    spec.rnp_rounds = 32;
  }
  return spec;
}

}  // namespace perfbench
