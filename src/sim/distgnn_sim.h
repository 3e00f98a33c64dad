#ifndef GNNPART_SIM_DISTGNN_SIM_H_
#define GNNPART_SIM_DISTGNN_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "gnn/model_config.h"
#include "graph/graph.h"
#include "metrics/partition_metrics.h"
#include "partition/partitioning.h"
#include "sim/cluster.h"

namespace gnnpart {

namespace net {
class Fabric;
struct LinkUsage;
}  // namespace net

namespace obs {
class EventLog;
}  // namespace obs

/// Partition-derived quantities that determine full-batch training cost.
/// Computed once per (graph, partitioning); every hyper-parameter
/// configuration is then simulated in closed form.
struct DistGnnWorkload {
  PartitionId k = 0;
  size_t graph_vertices = 0;
  size_t graph_edges = 0;
  /// Edges per partition (aggregation work).
  std::vector<uint64_t> edges;
  /// Covered vertices |V(p)| per partition (dense work + activation memory).
  std::vector<uint64_t> vertices;
  /// Per partition: number of covered vertices that are replicated
  /// somewhere (replica set size > 1); each must synchronize its state.
  std::vector<uint64_t> synced_vertices;
  /// Mean replication factor (for reporting).
  double replication_factor = 0;
};

/// Builds the workload profile from the partitioning's quality metrics,
/// which already hold every per-partition count the cost model needs.
DistGnnWorkload BuildDistGnnWorkload(const Graph& graph,
                                     const EdgePartitionMetrics& metrics);

/// Computes the metrics of `parts`, then builds the workload from them.
DistGnnWorkload BuildDistGnnWorkload(const Graph& graph,
                                     const EdgePartitioning& parts);

/// Per-machine accounting of one simulated epoch.
struct DistGnnMachineStats {
  double compute_seconds = 0;
  double network_seconds = 0;
  double network_bytes = 0;
  double memory_bytes = 0;
};

/// Result of simulating one full-batch training epoch (DistGNN-style BSP
/// execution: per-layer compute followed by replica synchronization, with
/// barrier/straggler semantics, forward and backward).
struct DistGnnEpochReport {
  double epoch_seconds = 0;
  double forward_seconds = 0;
  double backward_seconds = 0;
  double sync_seconds = 0;      // replica synchronization (network)
  double optimizer_seconds = 0; // model all-reduce + step
  double total_network_bytes = 0;
  double max_memory_bytes = 0;   // peak over machines (drives OOM)
  double mean_memory_bytes = 0;  // mean over machines (footprint figures)
  /// max/mean of per-machine memory (paper Fig. 5).
  double memory_balance = 0;
  bool out_of_memory = false;
  std::vector<DistGnnMachineStats> machines;
};

/// Simulates one epoch of full-batch training. Deterministic; pure
/// arithmetic over the workload profile.
///
/// All communication (replica sync, gradient all-reduce) is priced by
/// gnnpart::net. `fabric`, when non-null, selects the topology (its host
/// count must equal workload.k); a null fabric uses the legacy one —
/// NetworkConfig::FromCluster(cluster) — under which the report is
/// bit-exactly the pre-net closed form (DESIGN.md §10). `usage`, when
/// non-null, accrues per-link bytes/busy time (the CLI's flow-conservation
/// check and net/ manifest rows).
///
/// `events`, when non-null, appends one EpochEvents to the causal timeline
/// (DESIGN.md §7, §14): one span per (layer, machine, phase) — forward
/// compute/sync in layer order, backward in reverse layer order, then the
/// optimizer as one extra pseudo-step — on the simulated BSP timeline, plus
/// every sync/all-reduce flow with its uncontended completion and the
/// per-link utilization samples, all rebased onto that timeline by one
/// serial replay — byte-identical for every thread count. Attaching a log
/// never changes the report; a null log costs nothing.
DistGnnEpochReport SimulateDistGnnEpoch(const DistGnnWorkload& workload,
                                        const GnnConfig& config,
                                        const ClusterSpec& cluster,
                                        const net::Fabric* fabric = nullptr,
                                        net::LinkUsage* usage = nullptr,
                                        obs::EventLog* events = nullptr);

}  // namespace gnnpart

#endif  // GNNPART_SIM_DISTGNN_SIM_H_
