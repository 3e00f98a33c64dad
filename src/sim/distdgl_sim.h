#ifndef GNNPART_SIM_DISTDGL_SIM_H_
#define GNNPART_SIM_DISTDGL_SIM_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "gnn/model_config.h"
#include "graph/graph.h"
#include "graph/split.h"
#include "partition/partitioning.h"
#include "sampling/neighbor_sampler.h"
#include "sim/cluster.h"

namespace gnnpart {

namespace net {
class Fabric;
struct LinkUsage;
}  // namespace net

namespace obs {
class EventLog;
}  // namespace obs

/// The sampled mini-batches of one epoch: profiles[step][worker]. Sampling
/// depends only on (graph, partitioning, fan-outs, batch size, seed) — not
/// on feature/hidden sizes — so one profile is reused across the paper's
/// 3x3 hyper-parameter grid.
struct DistDglEpochProfile {
  size_t steps = 0;
  PartitionId workers = 0;
  std::vector<std::vector<MiniBatchProfile>> profiles;

  /// Totals over the epoch (all workers).
  uint64_t TotalRemoteInputVertices() const;
  uint64_t TotalInputVertices() const;
  uint64_t TotalComputationEdges() const;
  /// Paper Fig. 14: mean over steps of max/mean input vertices per worker.
  double InputVertexBalance() const;
};

/// What one epoch fixes before it samples: the training vertices sharded by
/// owning partition (DistDGL's locality-aware data loading) and shuffled
/// once, the generator state after that shuffle, and the per-worker batch
/// size. A worker whose partition owns no training vertex draws from all
/// of them, in split order.
struct DistDglEpochPlan {
  size_t steps = 0;
  size_t local_batch = 0;
  std::vector<std::vector<VertexId>> shards;  // per worker
  Rng rng{0};
};

/// Shards and shuffles the split's training vertices for `parts.k` workers
/// with Rng(seed). `steps` is ceil(|train| / global_batch_size).
Result<DistDglEpochPlan> PlanDistDglEpoch(const VertexPartitioning& parts,
                                          const VertexSplit& split,
                                          size_t global_batch_size,
                                          uint64_t seed);

/// Samples worker `w`'s mini batch of step `step`. Its seeds follow from the
/// step in closed form (the shard read cyclically, `local_batch` per step),
/// and it forks its own generator stream off the plan's, so any subset of
/// cells, in any order and on any thread, samples what the whole epoch
/// would.
MiniBatchProfile SampleDistDglStep(const DistDglEpochPlan& plan,
                                   const NeighborSampler& sampler,
                                   const VertexPartitioning& parts,
                                   const std::vector<size_t>& fanouts,
                                   size_t step, PartitionId w);

/// Runs the real layered neighbourhood sampler for every worker and step of
/// one epoch planned by PlanDistDglEpoch. Workers with fewer local training
/// vertices recycle their shard so that every worker runs every step, as in
/// DistDGL.
Result<DistDglEpochProfile> ProfileDistDglEpoch(
    const Graph& graph, const VertexPartitioning& parts,
    const VertexSplit& split, const std::vector<size_t>& fanouts,
    size_t global_batch_size, uint64_t seed);

/// One communication stage of a mini batch, in gnnpart::net's terms: the
/// worker's serial pre-comm work (the flow start offset), its network
/// volume and its RPC round trips (latency rounds).
struct CommCost {
  double start = 0;
  double bytes = 0;
  double rounds = 0;
};

/// DistDGL's cost of one worker's sampled mini batch: sampling RPCs, the
/// remote feature fetch, the per-layer forward pass, then (training only)
/// backward compute with the gradient all-reduce and the model update.
struct MiniBatchCost {
  CommCost sampling;
  CommCost feature;
  double forward_seconds = 0;
  CommCost backward;
  double update_seconds = 0;
};

/// The one home of the mini-batch cost model, shared by the epoch
/// simulator and gnnpart::serve. `workers` is the cluster's worker count k.
MiniBatchCost DistDglMiniBatchCost(const MiniBatchProfile& mb,
                                   const GnnConfig& config,
                                   const ClusterSpec& cluster,
                                   PartitionId workers);

/// Per-worker phase seconds over one epoch.
struct DistDglWorkerStats {
  double sampling_seconds = 0;
  double feature_seconds = 0;
  double forward_seconds = 0;
  double backward_seconds = 0;
  double update_seconds = 0;
  double network_bytes = 0;

  double total_seconds() const {
    return sampling_seconds + feature_seconds + forward_seconds +
           backward_seconds + update_seconds;
  }
};

/// Result of simulating one mini-batch training epoch with straggler
/// semantics: per step, each phase costs the maximum over workers (the
/// paper's methodology for phase analysis).
struct DistDglEpochReport {
  double epoch_seconds = 0;
  // Straggler-summed phase times (paper Figs. 19, 21, 22, 25).
  double sampling_seconds = 0;
  double feature_seconds = 0;
  double forward_seconds = 0;
  double backward_seconds = 0;
  double update_seconds = 0;
  double total_network_bytes = 0;
  uint64_t remote_input_vertices = 0;
  /// max/mean of per-worker total seconds (paper Fig. 17).
  double time_balance = 0;
  std::vector<DistDglWorkerStats> workers;
};

/// Translates an epoch profile into time/traffic under the cost model.
///
/// All communication (sampling RPCs, feature fetches, gradient all-reduce)
/// is priced by gnnpart::net. `fabric`, when non-null, selects the topology
/// (its host count must equal profile.workers); a null fabric uses the
/// legacy one — NetworkConfig::FromCluster(cluster) — under which the
/// report is bit-exactly the pre-net closed form (DESIGN.md §10). `usage`,
/// when non-null, accrues per-link bytes/busy time (the CLI's
/// flow-conservation check and net/ manifest rows);
/// per-chunk partials are merged in chunk order, so it is bit-identical
/// for every thread count.
///
/// `events`, when non-null, appends one EpochEvents to the causal timeline
/// (DESIGN.md §7, §14): one span per (step, worker, phase) laying the epoch
/// out on the simulated BSP timeline, every flow with its uncontended
/// completion, per-link utilization samples, and per-step cache hit/miss
/// aggregates — all emitted by one canonical serial replay, so the log is
/// byte-identical for every thread count. Attaching a log never changes
/// the report; a null log costs nothing.
DistDglEpochReport SimulateDistDglEpoch(const DistDglEpochProfile& profile,
                                        const GnnConfig& config,
                                        const ClusterSpec& cluster,
                                        const net::Fabric* fabric = nullptr,
                                        net::LinkUsage* usage = nullptr,
                                        obs::EventLog* events = nullptr);

}  // namespace gnnpart

#endif  // GNNPART_SIM_DISTDGL_SIM_H_
