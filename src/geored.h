// Umbrella header: the geored public API in one include.
//
//   #include "geored.h"
//
// Pulls in the topology substrate, network coordinates, clustering,
// placement strategies, the discrete-event simulator, workloads, the
// ReplicationManager/ReplicationSystem core, the serving data plane
// (request router + latency histogram), the scenario engine, and the
// replicated KV store.
// Individual headers remain the preferred include for library-internal use;
// this exists for applications and quick experiments.
#pragma once

#include "cluster/kmeans.h"
#include "cluster/microcluster.h"
#include "cluster/summarizer.h"
#include "common/flags.h"
#include "common/point.h"
#include "common/random.h"
#include "common/significance.h"
#include "common/stats.h"
#include "core/degree_allocator.h"
#include "core/epoch_pipeline.h"
#include "core/evaluation.h"
#include "core/fleet_manager.h"
#include "core/migration.h"
#include "core/replication_manager.h"
#include "core/system.h"
#include "net/clock.h"
#include "net/fault_injector.h"
#include "net/frame.h"
#include "net/rpc_collector.h"
#include "net/rpc_config.h"
#include "net/socket.h"
#include "netcoord/embedding.h"
#include "netcoord/gnp.h"
#include "netcoord/rnp.h"
#include "netcoord/stability.h"
#include "netcoord/vivaldi.h"
#include "placement/evaluate.h"
#include "placement/local_search.h"
#include "placement/online_clustering.h"
#include "placement/spread.h"
#include "placement/strategy.h"
#include "placement/write_aware.h"
#include "scenario/config.h"
#include "scenario/runner.h"
#include "serve/latency_histogram.h"
#include "serve/request_router.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/kvstore.h"
#include "store/replay.h"
#include "topology/analysis.h"
#include "topology/planetlab_model.h"
#include "topology/topology.h"
#include "workload/trace.h"
#include "workload/workload.h"
