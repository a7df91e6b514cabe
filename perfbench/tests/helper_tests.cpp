// Tests for the benchmark's own helpers: the tail-percentile rule, metric
// names, failure accounting, the tracer's self times, the speed reference,
// and digest stability of every workload across two in-process runs.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "helpers.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  // Descending, so the helper has to sort.
  for (std::size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

void test_tail_percentile() {
  const Tail empty = tail_percentile({});
  CHECK(empty.samples == 0 && empty.value == 0.0);

  // Fewer than twenty samples: no percentile above the median keeps ten
  // samples above it, so the tail is the median.
  for (const std::size_t n : {1u, 5u, 11u, 19u, 20u}) {
    const Tail tail = tail_percentile(one_to(n));
    CHECK(tail.percentile == 50);
    CHECK(tail.samples == n);
    CHECK(tail.value == quantile(one_to(n), 0.5));
  }
  const Tail t28 = tail_percentile(one_to(28));
  CHECK(t28.percentile == 64);  // rank ceil(0.64 * 28) = 18, ten above
  CHECK(t28.value == 18.0);
  CHECK(t28.above == 10);

  const Tail t100 = tail_percentile(one_to(100));
  CHECK(t100.percentile == 90);
  CHECK(t100.value == 90.0);
  CHECK(t100.above == 10);

  const Tail t1000 = tail_percentile(one_to(1000));
  CHECK(t1000.percentile == 99);
  CHECK(t1000.value == 990.0);
  CHECK(t1000.above == 10);

  // Every answer keeps at least ten samples above once n >= 20, and the
  // next whole percentile up would not.
  for (std::size_t n = 20; n <= 400; n += 7) {
    const Tail tail = tail_percentile(one_to(n));
    CHECK(tail.above >= 10);
    if (tail.percentile < 99) {
      const auto next_rank = static_cast<std::size_t>(
          std::ceil((tail.percentile + 1) * static_cast<double>(n) / 100.0));
      CHECK(n - next_rank < 10);
    }
  }
}

void test_metric_names() {
  for (const char* good : {"ops_per_s", "epoch_ms_p50", "core.record_ns_per_access",
                           "net.useful_ratio", "a", "9lives", "x-y.z_1"}) {
    CHECK(valid_metric_name(good));
  }
  const std::string too_long(65, 'a');
  for (const std::string& bad : {std::string(), std::string("a b"), std::string(".hidden"),
                                std::string("_x"), std::string("ms/op"), std::string("q\"uote"),
                                std::string("caf\xc3\xa9"), too_long}) {
    CHECK(!valid_metric_name(bad));
  }
  CHECK(valid_metric_name(std::string(64, 'a')));

  MetricSet metrics;
  metrics.add("setup_s", 1.5, "s");
  bool threw = false;
  try {
    metrics.add("setup_s", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    metrics.add("bad name", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  CHECK(metrics.json() == "{\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}");
}

void test_accounting() {
  Accounting a;
  CHECK(a.balanced());
  CHECK(a.failed_fraction() == 0.0);
  a.attempted = 100;
  a.completed = 90;
  a.rejected = 6;
  a.lost = 3;
  CHECK(!a.balanced());  // one request unaccounted for
  a.unfinished = 1;
  CHECK(a.balanced());
  CHECK(a.failed() == 10);
  CHECK(a.failed_fraction() == 0.1);

  Accounting b;
  b.attempted = 10;
  b.completed = 10;
  a.merge(b);
  CHECK(a.attempted == 110 && a.completed == 100 && a.failed() == 10);
  CHECK(a.balanced());
}

void test_digest() {
  Digest a;
  Digest b;
  for (Digest* d : {&a, &b}) {
    d->add_u64(7);
    d->add_double(1.25);
    d->add_string("placement");
  }
  CHECK(a.value() == b.value());
  CHECK(a.hex().size() == 16);

  Digest swapped;
  swapped.add_double(1.25);
  swapped.add_u64(7);
  swapped.add_string("placement");
  CHECK(swapped.value() != a.value());

  Digest zero;
  Digest negative_zero;
  zero.add_double(0.0);
  negative_zero.add_double(-0.0);
  CHECK(zero.value() != negative_zero.value());  // bit patterns, not values
}

void test_tracer_self_time() {
  Tracer tracer(true);
  {
    const Tracer::Scope outer(tracer, "outer");
    { const Tracer::Scope inner(tracer, "inner"); }
    { const Tracer::Scope inner(tracer, "inner"); }
  }
  CHECK(tracer.spans().size() == 3);
  CHECK(tracer.spans()[1].parent == 0 && tracer.spans()[2].parent == 0);
  const auto outer = tracer.total("outer");
  const auto inner = tracer.total("inner");
  CHECK(outer.spans == 1 && inner.spans == 2);
  CHECK(std::fabs(outer.self_ms - (outer.total_ms - inner.total_ms)) < 1e-9);
  CHECK(inner.self_ms == inner.total_ms);

  Tracer off(false);
  { const Tracer::Scope span(off, "nothing"); }
  CHECK(off.spans().empty());
}

void test_reference_kernel() {
  const ReferenceRun a = run_reference_kernel();
  const ReferenceRun b = run_reference_kernel();
  CHECK(a.ms > 0.0 && b.ms > 0.0);
  CHECK(a.checksum == b.checksum);  // fixed work, whatever the machine's speed
  // A machine running the kernel twice as slow as the reference halves the
  // factor: a time measured there doubles its reported counterpart.
  CHECK(reference_scale(kReferenceMs) == 1.0);
  CHECK(reference_scale(2.0 * kReferenceMs) == 0.5);
  CHECK(reference_scale(0.0) == 1.0);
}

void test_workload_digests_repeat() {
  Options options;
  options.seed = 3;
  options.seconds = 1.0;
  options.tiny = true;
  options.scenario_path = PERFBENCH_SCENARIO_PATH;
  geored::ThreadPool::set_global_thread_count(2);
  for (const auto& name : workload_names()) {
    std::string digests[2];
    for (auto& digest : digests) {
      auto workload = make_workload(name, options);
      WorldTimings timings;
      World world;
      if (workload->reports_setup()) world = build_world(world_spec(options), timings);
      workload->prepare(world);
      Tracer tracer(false);
      const PhaseResult result = workload->run(tracer);
      CHECK(result.violations.empty());
      CHECK(result.accounting.balanced());
      CHECK(result.accounting.attempted > 0);
      digest = result.digest;
    }
    std::printf("%-16s %s %s\n", name.c_str(), digests[0].c_str(), digests[1].c_str());
    CHECK(digests[0] == digests[1]);
  }
  CHECK(make_workload("no_such_workload", options) == nullptr);
}

}  // namespace

int main() {
  test_tail_percentile();
  test_metric_names();
  test_accounting();
  test_digest();
  test_tracer_self_time();
  test_reference_kernel();
  test_workload_digests_repeat();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all helper tests passed\n");
  return 0;
}
