// Ablation A12 — centralized vs decentralized placement epochs.
//
// Algorithm 1 collects summaries at one node. The decentralized variant
// exchanges them all-to-all among the k replica holders and lets every
// holder compute the identical proposal locally — no central server, no
// single point of failure, at the cost of k*(k-1) instead of k summary
// messages. This harness verifies agreement and quantifies the traffic and
// latency difference across k.
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "common/serialize.h"
#include "core/epoch_pipeline.h"
#include "netcoord/embedding.h"
#include "topology/planetlab_model.h"

using namespace geored;

int main() {
  bench::print_header(
      "Ablation: centralized vs decentralized placement epochs",
      "226-node topology; k replica holders summarizing m=4 micro-clusters each");

  const auto topology = topo::generate_planetlab_like(topo::PlanetLabModelConfig{}, 42);
  const auto coords =
      coord::run_rnp(topology, coord::RnpConfig{}, coord::GossipConfig{}, 7);
  std::vector<place::CandidateInfo> candidates;
  for (std::size_t i = 0; i < 20; ++i) {
    candidates.push_back({static_cast<topo::NodeId>(i), coords[i].position,
                          std::numeric_limits<double>::infinity()});
  }

  std::printf("%-6s %14s %16s %18s %18s %12s\n", "k", "central B", "decentral B",
              "central ms", "decentral ms", "agreement");

  bool all_agree = true;
  for (std::size_t k = 2; k <= 7; ++k) {
    Rng rng(k);
    std::vector<core::SummarySource> summaries;  // one per holder, in node order
    for (std::size_t r = 0; r < k; ++r) {
      std::vector<cluster::MicroCluster> clusters;
      for (int c = 0; c < 4; ++c) {
        cluster::MicroCluster micro;
        for (int p = 0; p < 25; ++p) {
          Point point = coords[r].position;
          for (std::size_t d = 0; d < point.dim(); ++d) point[d] += rng.normal(0.0, 10.0);
          micro.absorb(point, 1.0);
        }
        clusters.push_back(micro);
      }
      summaries.push_back({static_cast<topo::NodeId>(r), std::move(clusters)});
    }

    // Central reference: every holder ships to holder 0 (the coordinator).
    std::uint64_t central_bytes = 0;
    double central_ms = 0.0;
    for (const auto& [node, clusters] : summaries) {
      ByteWriter writer;
      for (const auto& micro : clusters) micro.serialize(writer);
      if (node != 0) {
        central_bytes += writer.size();
        central_ms = std::max(central_ms, topology.rtt_ms(node, 0) / 2.0);
      }
    }

    // The collector checks that every holder decided the same proposal (a
    // divergence throws) and returns it; the simulator runs to the last
    // decision, so its clock is the completion time.
    sim::Simulator simulator;
    sim::Network network(simulator, topology);
    core::DecentralizedCollector collector(simulator, network);
    const auto collected = collector.collect(summaries, {candidates, 3, /*epoch_seed=*/k});
    const bool agreement = collected.agreed_proposal.has_value();
    all_agree &= agreement;
    std::printf("%-6zu %14llu %16llu %16.1f %18.1f %12s\n", k,
                static_cast<unsigned long long>(central_bytes),
                static_cast<unsigned long long>(collected.summary_bytes), central_ms,
                simulator.now(), agreement ? "yes" : "NO");
  }

  std::printf("\npaper-shape checks:\n");
  bench::print_check("all replicas agree on the proposal without coordination", all_agree);
  std::printf(
      "  note: decentralized costs (k-1)x the summary bytes — hundreds of KB at\n"
      "  most — and removes the central collection point entirely.\n");
  return 0;
}
