// geored_e2e: the end-to-end benchmark runner.
//
//   geored_e2e --workload <name|all> --seed N --seconds S --trace 0|1
//              [--out-dir DIR] [--commit SHA] [--scenario FILE]
//   geored_e2e --selfcheck
//
// The global ThreadPool is fixed at kPoolThreads; every result is stamped
// with it. --selfcheck alone varies the pool size.
//
// Untraced runs (--trace 0) measure the end-to-end metrics. Traced runs
// (--trace 1) spend half the time untraced and half traced, derive the
// per-layer metrics from the spans, report the difference as the tracing
// overhead, and require both halves to print the same digest. Every run
// sets up its workload five times and reports the median set-up time.
//
// Output: a human-readable table, then one line `RESULT {...}` per workload
// with every metric, the stamp, the digest and the checks. The exit code is
// non-zero when any check fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/point_set_simd.h"
#include "common/thread_pool.h"
#include "helpers.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

constexpr std::size_t kSetupRepeats = 5;
/// Global pool size of every measured run. On a shared 4-vCPU machine a
/// second thread made no workload faster and made fleet_replan's epoch
/// times bimodal, so the measured configuration is single-threaded.
constexpr std::size_t kPoolThreads = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
  std::string scenario = "perfbench/scenarios/scenario_churn.json";
  bool selfcheck = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: geored_e2e --workload <name|all> --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit SHA] "
               "[--scenario FILE]\n       geored_e2e --selfcheck\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      args.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--scenario") {
        args.scenario = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!args.selfcheck && args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string stamp_json(const Args& args) {
  std::string out = "{";
  out += "\"seed\": " + std::to_string(args.seed);
  out += ", \"pool_threads\": " + std::to_string(geored::ThreadPool::global().thread_count());
  out += ", \"simd\": " +
         json_string(geored::simd::level_name(geored::simd::active_level()));
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"commit\": " + json_string(args.commit);
  out += ", \"seconds\": " + json_number(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  return out + "}";
}

struct Outcome {
  PhaseResult result;
  std::string traced_digest;  ///< empty when untraced
  double setup_s = 0.0;       ///< at reference speed
  double raw_setup_s = 0.0;   ///< wall
};

/// Median of three reference-kernel runs: a set-up is one long sample, so
/// its scale should not rest on a single short kernel run.
double reference_ms() {
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) runs.push_back(run_reference_kernel().ms);
  return quantile(runs, 0.5);
}

Outcome run_workload(const std::string& name, const Args& args, const Options& options) {
  Options phase = options;
  if (args.trace) phase.seconds = options.seconds / 2.0;

  Outcome outcome;
  std::vector<double> setups;
  std::vector<double> raw_setups;
  std::vector<double> topology_ms;
  std::vector<double> embed_ms;
  World world;
  std::unique_ptr<Workload> workload;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    workload.reset();
    world = World{};
    // Set-up is CPU-bound: restated at reference speed like epoch times,
    // by the kernel's time before and after it.
    const double before_ms = reference_ms();
    const double start = now_ms();
    workload = make_workload(name, phase);
    if (workload->reports_setup()) {
      WorldTimings timings;
      world = build_world(world_spec(phase), timings);
      topology_ms.push_back(timings.topology_ms);
      embed_ms.push_back(timings.embed_ms);
    }
    workload->prepare(world);
    raw_setups.push_back((now_ms() - start) / 1000.0);
    setups.push_back(raw_setups.back() * reference_scale((before_ms + reference_ms()) / 2.0));
    if (!workload->reports_setup()) break;
  }
  outcome.setup_s = quantile(setups, 0.5);
  outcome.raw_setup_s = quantile(raw_setups, 0.5);

  Tracer off(false);
  outcome.result = workload->run(off);
  workload.reset();
  if (!args.trace) return outcome;

  Tracer on(true);
  workload = make_workload(name, phase);
  workload->prepare(world);
  PhaseResult traced = workload->run(on);
  outcome.traced_digest = traced.digest;

  MetricSet& layers = traced.per_layer;
  if (!topology_ms.empty()) {
    layers.add("topology.build_ms", quantile(topology_ms, 0.5), "ms");
    layers.add("netcoord.embed_ms", quantile(embed_ms, 0.5), "ms");
  }
  const auto per_op = [](const PhaseResult& r) {
    return r.timed_ms / std::max(1.0, static_cast<double>(r.ops));
  };
  layers.add("trace.spans", static_cast<double>(on.spans().size()), "count");
  layers.add("trace.overhead_frac", per_op(traced) / per_op(outcome.result) - 1.0, "ratio");
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string span_path =
      args.out_dir + "/" + name + "-seed" + std::to_string(args.seed) + "-spans.jsonl";
  if (!on.write_jsonl(span_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", span_path.c_str());
  }
  outcome.result.per_layer = std::move(layers);
  for (auto& violation : traced.violations) {
    outcome.result.violations.push_back("traced: " + violation);
  }
  if (traced.digest != outcome.result.digest) {
    outcome.result.violations.push_back("traced digest " + traced.digest +
                                        " != untraced digest " + outcome.result.digest);
  }
  return outcome;
}

void print_table(const std::string& name, const MetricSet& metrics) {
  for (const auto& metric : metrics.all()) {
    std::printf("  %-16s %-40s %18.6g %-6s %s\n", name.c_str(), metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.note.c_str());
  }
}

int run_main(const Args& args) {
  Options options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.scenario_path = args.scenario;

  std::vector<std::string> names;
  if (args.workload == "all") {
    names = workload_names();
  } else {
    if (make_workload(args.workload, options) == nullptr) usage("unknown workload " + args.workload);
    names = {args.workload};
  }
  const std::string stamp = stamp_json(args);
  bool all_ok = true;
  for (const auto& name : names) {
    Outcome outcome = run_workload(name, args, options);
    PhaseResult& result = outcome.result;
    MetricSet e2e;
    if (make_workload(name, options)->reports_setup()) {
      char note[96];
      std::snprintf(note, sizeof note, "median of %zu at reference speed; raw median %.6g s",
                    kSetupRepeats, outcome.raw_setup_s);
      e2e.add("setup_s", outcome.setup_s, "s", note);
    }
    for (const auto& metric : result.end_to_end.all()) {
      e2e.add(metric.name, metric.value, metric.unit, metric.note);
    }
    e2e.add("peak_rss_mb", peak_rss_mb(), "MiB");
    if (!result.accounting.balanced()) {
      result.violations.push_back("attempted != completed + failed");
    }
    const bool correct = result.violations.empty();
    all_ok = all_ok && correct;

    std::printf("workload %s  seed %llu  rounds %zu  epochs %zu  digest %s%s\n", name.c_str(),
                static_cast<unsigned long long>(args.seed), result.rounds, result.epochs,
                result.digest.c_str(),
                outcome.traced_digest.empty() ? "" : ("  traced digest " + outcome.traced_digest).c_str());
    print_table(name, e2e);
    print_table(name, result.per_layer);
    for (const auto& violation : result.violations) {
      std::printf("  VIOLATION %s: %s\n", name.c_str(), violation.c_str());
    }
    std::string line = "RESULT {\"workload\": " + json_string(name) + ", \"stamp\": " + stamp;
    line += ", \"correct\": " + std::string(correct ? "true" : "false");
    line += ", \"attempted\": " + std::to_string(result.accounting.attempted);
    line += ", \"failed\": " + std::to_string(result.accounting.failed());
    line += ", \"digest\": " + json_string(result.digest);
    line += ", \"traced_digest\": " + json_string(outcome.traced_digest);
    line += ", \"rounds\": " + std::to_string(result.rounds);
    line += ", \"violations\": [";
    for (std::size_t i = 0; i < result.violations.size(); ++i) {
      line += (i > 0 ? ", " : "") + json_string(result.violations[i]);
    }
    line += "], \"end_to_end\": " + e2e.json();
    line += ", \"per_layer\": " + result.per_layer.json() + "}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  return all_ok ? 0 : 1;
}

/// Tiny rounds of every workload at pool sizes 1 and 2 must print the same
/// digest (the library's epochs are bit-identical at any thread count).
int selfcheck(const Args& args) {
  Options options;
  options.seed = args.seed;
  options.seconds = 1.0;
  options.tiny = true;
  options.scenario_path = args.scenario;
  bool ok = true;
  for (const auto& name : workload_names()) {
    std::string digests[2];
    for (std::size_t threads = 1; threads <= 2; ++threads) {
      geored::ThreadPool::set_global_thread_count(threads);
      auto workload = make_workload(name, options);
      WorldTimings timings;
      World world;
      if (workload->reports_setup()) world = build_world(world_spec(options), timings);
      workload->prepare(world);
      Tracer off(false);
      const PhaseResult result = workload->run(off);
      digests[threads - 1] = result.digest;
      for (const auto& violation : result.violations) {
        std::printf("  VIOLATION %s (pool %zu): %s\n", name.c_str(), threads, violation.c_str());
        ok = false;
      }
    }
    const bool same = digests[0] == digests[1];
    ok = ok && same;
    std::printf("selfcheck %-16s pool1 %s  pool2 %s  %s\n", name.c_str(), digests[0].c_str(),
                digests[1].c_str(), same ? "ok" : "MISMATCH");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    geored::ThreadPool::set_global_thread_count(kPoolThreads);
    return args.selfcheck ? selfcheck(args) : run_main(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "geored_e2e: %s\n", error.what());
    return 3;
  }
}
