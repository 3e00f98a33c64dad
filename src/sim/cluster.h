#ifndef GNNPART_SIM_CLUSTER_H_
#define GNNPART_SIM_CLUSTER_H_

#include <cstddef>

namespace gnnpart {

/// Performance model of one machine of the simulated cluster plus its
/// network, standing in for the paper's testbed (32 machines, 8-core
/// Haswell 2.4 GHz, 64 GB RAM).
///
/// Absolute constants only set the time unit; every paper-facing result is
/// a *ratio* against random partitioning on the same cluster, so the shapes
/// the study reports depend on the relative magnitude of compute vs network
/// costs, not on these exact values. Defaults approximate the testbed:
/// ~20 GFLOP/s effective dense throughput per 8-core machine and a 1 GbE
/// commodity interconnect — the communication-bound regime the paper's
/// DistGNN results (speedups up to 10x from replication-factor reduction
/// alone) clearly indicate. The memory budget is the testbed's 64 GB
/// divided by ~1000, matching the graph-size scale-down, so out-of-memory
/// behaviour appears at the same *relative* state sizes as in the paper.
struct ClusterSpec {
  int num_machines = 4;
  /// Effective dense-compute throughput (FLOP/s) per machine.
  double flops_per_second = 20e9;
  /// Aggregations are memory-bound; they run at a lower effective rate.
  double aggregation_flops_per_second = 4e9;
  /// Point-to-point bandwidth per machine (bytes/s), full duplex (1 GbE).
  /// This and network_latency are read only by NetworkConfig::FromCluster;
  /// every simulator prices communication from the fabric's NetworkConfig.
  double network_bandwidth = 125e6;
  /// Per-message/RPC latency (seconds).
  double network_latency = 100e-6;
  /// Per-machine memory budget (bytes) for OOM detection.
  double memory_budget_bytes = 64e6;
  /// Local memory streaming rate for feature gathering (bytes/s).
  double memory_bandwidth = 10e9;
  /// Local neighbourhood-sampling throughput (sampled edges/s): hash-heavy
  /// pointer chasing through the sampler/RPC stack — DistDGL measures in
  /// the low millions of sampled edges per second per worker.
  double sampling_edges_per_second = 1.5e6;
  /// Payload bytes charged per remote sampling request (request + sampled
  /// adjacency response, amortized over DistDGL's per-layer RPC batching).
  double rpc_bytes_per_remote_vertex = 200.0;
};

}  // namespace gnnpart

#endif  // GNNPART_SIM_CLUSTER_H_
