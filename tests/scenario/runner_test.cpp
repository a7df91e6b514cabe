#include "scenario/runner.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/thread_pool.h"

namespace geored::scenario {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A small fast world shared by the inline scenarios below.
constexpr const char* kSmallWorld = R"(
  "topology": {"nodes": 50, "dcs": 6, "seed": 5},
  "coords": {"system": "rnp", "rounds": 32, "seed": 7},
  "workload": {"kind": "uniform", "mean_rate": 0.001, "seed": 3},
  "manager": {"replication_degree": 2, "micro_clusters": 6})";

TEST(ScenarioRunner, GoldenTranscriptMatches) {
  // The shipped CI smoke scenario must reproduce its pinned transcript
  // byte for byte; CI runs the same comparison through the CLI. A diff here
  // means the engine's observable behavior changed — regenerate the golden
  // (geored scenario run scenarios/mini_smoke.json --out ...) only when the
  // change is intended, and say so in the commit message.
  const auto config = load_scenario_file(GEORED_SCENARIO_DIR "/mini_smoke.json");
  const auto result = run_scenario(config);
  EXPECT_EQ(result.jsonl(), slurp(GEORED_SCENARIO_GOLDEN_DIR "/mini_smoke.jsonl"));
}

TEST(ScenarioRunner, JsonlIsByteIdenticalAcrossThreadCounts) {
  const auto config = load_scenario_file(GEORED_SCENARIO_DIR "/mini_smoke.json");
  ThreadPool::set_global_thread_count(1);
  const auto serial = run_scenario(config).jsonl();
  ThreadPool::set_global_thread_count(4);
  const auto parallel = run_scenario(config).jsonl();
  ThreadPool::set_global_thread_count(0);  // back to the default
  EXPECT_EQ(serial, parallel);
}

TEST(ScenarioRunner, RepeatedRunsAreIdentical) {
  const auto config = load_scenario_file(GEORED_SCENARIO_DIR "/mini_smoke.json");
  EXPECT_EQ(run_scenario(config).jsonl(), run_scenario(config).jsonl());
}

TEST(ScenarioRunner, TimingsSidecarCoversEveryEpochAndStaysOutOfTranscript) {
  const auto config = load_scenario_file(GEORED_SCENARIO_DIR "/mini_smoke.json");
  const auto result = run_scenario(config);
  const std::string timings = result.timings_jsonl();
  // One json object per epoch, every stage key present, totals additive.
  std::istringstream lines(timings);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"epoch\":" + std::to_string(count)), std::string::npos) << line;
    for (const char* key : {"\"t_ms\":", "\"ingest_flush_ms\":", "\"collect_ms\":",
                            "\"propose_ms\":", "\"gate_ms\":", "\"adopt_ms\":",
                            "\"total_ms\":", "\"allocate_ms\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << line;
    }
    ++count;
  }
  EXPECT_EQ(count, result.epochs.size());
  for (const auto& row : result.epochs) {
    EXPECT_GE(row.stage_totals.ingest_flush_ms, 0.0);
    EXPECT_GE(row.stage_totals.total_ms(), row.stage_totals.propose_ms);
    // mini_smoke divides a replica budget every epoch: the curves and the
    // allocator take measurable time, reported beside the five stages.
    EXPECT_GT(row.allocate_ms, 0.0);
  }
  // The sidecar must never leak into the deterministic transcript: the
  // golden comparison above pins jsonl() bytes, and no stage key may appear.
  EXPECT_EQ(result.jsonl().find("ingest_flush_ms"), std::string::npos);
}

TEST(ScenarioRunner, FlashCrowdSpikesAndRecovers) {
  std::ostringstream text;
  text << R"({"name": "spike", "seed": 4, "epochs": 6, "epoch_ms": 20000,)"
       << kSmallWorld << R"(, "events": [
            {"kind": "flash_crowd", "region": "*", "start_ms": 40000,
             "end_ms": 80000, "factor": 8}]})";
  const auto result = run_scenario(parse_scenario(text.str()));
  ASSERT_EQ(result.epochs.size(), 6u);
  // Epochs 2 and 3 sit inside the spike window: roughly 8x the quiet rate.
  const double quiet = static_cast<double>(result.epochs[0].accesses);
  const double spike = static_cast<double>(result.epochs[2].accesses);
  const double after = static_cast<double>(result.epochs[4].accesses);
  EXPECT_GT(spike, 4.0 * quiet);
  EXPECT_LT(after, 2.0 * quiet);  // recovery: demand settles back
}

TEST(ScenarioRunner, OutageExcludesNodeAndAccountsLostSources) {
  std::ostringstream text;
  text << R"({"name": "outage", "seed": 4, "epochs": 4, "epoch_ms": 20000,)"
       << kSmallWorld << R"(, "events": [
            {"kind": "outage", "node": 0, "start_ms": 20000, "end_ms": 40000}]})";
  const auto result = run_scenario(parse_scenario(text.str()));
  ASSERT_EQ(result.epochs.size(), 4u);  // every epoch completed
  for (const auto& row : result.epochs) {
    if (row.epoch == 1) {
      ASSERT_EQ(row.excluded.size(), 1u);
      EXPECT_EQ(row.excluded[0], 0u);
      // The excluded data center held a replica in this small world, so its
      // summaries count as lost — never silently dropped.
      EXPECT_GE(row.lost_sources, 1u);
    } else {
      EXPECT_TRUE(row.excluded.empty()) << "epoch " << row.epoch;
      EXPECT_EQ(row.lost_sources, 0u) << "epoch " << row.epoch;
    }
    EXPECT_EQ(row.lost_accesses, 0u);  // routing always found a live replica
  }
}

TEST(ScenarioRunner, PopulationDriftChangesActiveClients) {
  std::ostringstream text;
  text << R"({"name": "drift", "seed": 4, "epochs": 4, "epoch_ms": 20000,)"
       << kSmallWorld << R"(, "initial_active_fraction": 0.5, "events": [
            {"kind": "population", "region": "*", "at_ms": 20000, "add": 6},
            {"kind": "population", "region": "*", "at_ms": 60000, "retire": 10}]})";
  const auto result = run_scenario(parse_scenario(text.str()));
  ASSERT_EQ(result.epochs.size(), 4u);
  EXPECT_EQ(result.epochs[0].active_clients, 22u);  // ceil(0.5 * 44)
  EXPECT_EQ(result.epochs[1].active_clients, 28u);
  EXPECT_EQ(result.epochs[2].active_clients, 28u);
  EXPECT_EQ(result.epochs[3].active_clients, 18u);
}

TEST(ScenarioRunner, ServeBlockEmitsConsistentCountersAndQuantiles) {
  std::ostringstream text;
  text << R"({"name": "serve", "seed": 4, "epochs": 3, "epoch_ms": 20000,)"
       << kSmallWorld
       << R"(, "serve": {"service_ms": 1.0, "queue_cap": 8, "policy": "spill"}})";
  const auto result = run_scenario(parse_scenario(text.str()));
  ASSERT_EQ(result.epochs.size(), 3u);
  for (const auto& row : result.epochs) {
    ASSERT_TRUE(row.serve.enabled);
    // Requests decompose exactly; admitted requests are the recorded
    // accesses (rejected ones never reach the manager).
    EXPECT_EQ(row.serve.requests, row.serve.admitted + row.serve.rejected);
    EXPECT_EQ(row.serve.admitted, row.accesses);
    EXPECT_GE(row.serve.admitted, row.serve.spilled);
    // Quantiles are monotone and the mean sits inside the range.
    EXPECT_LE(row.serve.p50_ms, row.serve.p99_ms);
    EXPECT_LE(row.serve.p99_ms, row.serve.p999_ms);
    EXPECT_GT(row.serve.mean_ms, 0.0);
  }
  // The serve record shows up in the jsonl line with its fixed key order.
  EXPECT_NE(result.jsonl_lines[0].find("\"serve\":{\"requests\":"), std::string::npos);
}

TEST(ScenarioRunner, ServelessScenarioEmitsNoServeRecord) {
  std::ostringstream text;
  text << R"({"name": "quiet", "seed": 4, "epochs": 1, "epoch_ms": 20000,)"
       << kSmallWorld << "}";
  const auto result = run_scenario(parse_scenario(text.str()));
  EXPECT_FALSE(result.epochs[0].serve.enabled);
  // Pre-serve transcripts stay byte-identical: no "serve" key at all.
  EXPECT_EQ(result.jsonl_lines[0].find("\"serve\""), std::string::npos);
}

TEST(ScenarioRunner, UnmatchedRegionPatternThrowsBadReference) {
  std::ostringstream text;
  text << R"({"name": "bad", "seed": 4, "epochs": 4, "epoch_ms": 20000,)"
       << kSmallWorld << R"(, "events": [
            {"kind": "flash_crowd", "region": "atlantis-*", "start_ms": 0,
             "end_ms": 20000, "factor": 2}]})";
  // The pattern is well-formed, so this surfaces at run time when it
  // matches no region of the generated topology.
  const auto config = parse_scenario(text.str());
  try {
    run_scenario(config);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    EXPECT_EQ(error.kind(), ScenarioError::Kind::kBadReference);
  }
}

TEST(ScenarioRunner, GroupWeightShiftsBudgetTowardFavoredGroup) {
  std::ostringstream text;
  text << R"({"name": "weights", "seed": 4, "epochs": 6, "epoch_ms": 20000,)"
       << kSmallWorld
       << R"(, "fleet": {"groups": 3, "replica_budget": 7, "min_degree": 1,
                         "max_degree": 4},
              "events": [
                {"kind": "group_weight", "at_ms": 40000, "group": 1, "weight": 8.0}]})";
  const auto result = run_scenario(parse_scenario(text.str()));
  for (const auto& row : result.epochs) {
    EXPECT_EQ(row.total_degree, 7u) << "epoch " << row.epoch;  // budget holds
    ASSERT_EQ(row.degrees.size(), 3u);
  }
  // Once the weight lands, the favored group must hold at least as many
  // replicas as either neighbor (uniform demand, 8x priority).
  const auto& last = result.epochs.back().degrees;
  EXPECT_GE(last[1], last[0]);
  EXPECT_GE(last[1], last[2]);
}

}  // namespace
}  // namespace geored::scenario
