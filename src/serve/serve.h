#ifndef GNNPART_SERVE_SERVE_H_
#define GNNPART_SERVE_SERVE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "gnn/model_config.h"
#include "graph/graph.h"
#include "net/topology.h"
#include "partition/partitioning.h"
#include "serve/batcher.h"
#include "serve/workload.h"
#include "sim/cluster.h"

namespace gnnpart {

namespace obs {
class EventLog;
}  // namespace obs

namespace serve {

/// Multi-tenant mini-batch inference serving (DESIGN.md §15). A request's
/// life: arrive (workload.h) -> queue at its home partition (batcher.h) ->
/// batch dispatch -> ego-graph sampling (real NeighborSampler) -> sampling
/// RPCs + remote feature fetches priced as weighted flows on the shared
/// gnnpart::net fabric -> forward pass through the GNN cost model. Tail
/// latency (p50/p95/p99) is the figure of merit.
///
/// Determinism & congestion model: every batch's flows are *pinned* to the
/// uncontended timetable (dispatch + closed-form stage offsets) and the
/// whole run — serving plus optional co-tenant training — is one global
/// SimulateFlows call. Congestion therefore shows up as flow *lateness*
/// against the uncontended closed form, which is exactly the measured
/// quantity (request latency); stages do not re-queue behind late
/// predecessors. Open-loop all the way down, and byte-identical for every
/// --threads value.
struct ServeConfig {
  RequestGenConfig workload;
  BatchConfig batch;
  /// Fair-share weight of serving flows (> 0). Co-tenant training flows
  /// always weigh 1.0, so weight w gives a serving flow w times the
  /// bandwidth of a training flow on any shared bottleneck. 1.0 = no
  /// preemption (bit-identical to the unweighted engine). Powers of two
  /// keep the weighted arithmetic exact.
  double serve_weight = 4.0;
  /// Replay a DistDGL training epoch on the same fabric, cycling its steps
  /// back-to-back until the serving window is covered.
  bool cotenant = false;
  GnnConfig gnn;
  ClusterSpec cluster;
  net::NetworkConfig network;
  /// Seed of the sampling RNG streams and of the co-tenant's train split
  /// (the workload has its own seed).
  uint64_t seed = 7;
  /// Train/validation fractions of the co-tenant's synthetic split.
  double train_fraction = 0.1;
  double validation_fraction = 0.1;
  /// When non-empty, request/batch counters and the latency histogram are
  /// published to gnnpart::obs under "<metrics_prefix>/...". Counters
  /// accumulate per process, so use one distinct prefix per run.
  std::string metrics_prefix;
};

/// Exact latency quantiles (seconds), computed from the sorted per-request
/// latencies — not interpolated from histogram buckets.
struct ServeLatencyStats {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
  double mean = 0;
};

/// Per-batch pricing and outcome, kept for validation and the event
/// timeline. All times are absolute simulated seconds.
struct BatchOutcome {
  double sampling_compute = 0;   // local sampling work before the RPCs
  double gather_compute = 0;     // local feature gather
  double forward_compute = 0;    // forward pass over the sampled graph
  double sampling_bytes = 0;     // remote sampling RPC payload
  double feature_bytes = 0;      // remote feature fetch payload
  double sampling_flow_start = 0;
  double feature_flow_start = 0;
  double sampling_uncontended_end = 0;
  double feature_uncontended_end = 0;
  double sampling_end = 0;   // actual, >= uncontended
  double pre_forward_end = 0;  // feature stage end (actual)
  double completion = 0;       // pre_forward_end + forward_compute
};

struct ServeReport {
  uint64_t requests = 0;
  uint64_t batches = 0;
  double mean_batch_size = 0;
  ServeLatencyStats latency;
  /// Attribution totals over all batches (seconds).
  double queue_seconds = 0;       // sum over requests of dispatch - arrival
  double compute_seconds = 0;     // sampling + gather + forward, per batch
  double network_seconds = 0;     // uncontended comm time, per batch
  double congestion_seconds = 0;  // lateness vs the uncontended timetable
  double network_bytes = 0;       // serving RPC + feature bytes
  uint64_t cotenant_steps = 0;    // training steps replayed alongside
  /// latencies[i] = completion - arrival of request id i.
  std::vector<double> latencies;
  std::vector<BatchOutcome> outcomes;  // parallel to the batch vector
};

/// Runs the serving window against `owners` (one partition per vertex; use
/// DeriveVertexOwnership to serve a vertex-cut partitioning). Workers are
/// the k partitions, one fabric host each. When `events` is non-null, the
/// run appends one "serve" epoch — per batch: queue spans (one per
/// request), sampling/feature/forward spans, and the serving flows with
/// their uncontended completions — plus the link utilization samples of
/// the whole co-tenanted run, so `explain` can attribute queueing vs.
/// network vs. compute. Boundary invariants run under the active
/// GNNPART_CHECK level (check/validators.h serve/*). A non-finite arrival
/// rate or duration, or an expected request count (rate × duration) of
/// 2^32 or more, is InvalidArgument before any request is generated.
Result<ServeReport> RunServe(const Graph& graph,
                             const VertexPartitioning& owners,
                             const ServeConfig& config, obs::EventLog* events);

}  // namespace serve
}  // namespace gnnpart

#endif  // GNNPART_SERVE_SERVE_H_
