#ifndef GNNPART_CHECK_VALIDATORS_H_
#define GNNPART_CHECK_VALIDATORS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dyn/migrate.h"
#include "dyn/stream.h"
#include "graph/graph.h"
#include "graph/split.h"
#include "metrics/partition_metrics.h"
#include "net/flowsim.h"
#include "net/overlap.h"
#include "net/topology.h"
#include "obs/events.h"
#include "partition/partitioning.h"
#include "partition/split_merge.h"
#include "serve/batcher.h"
#include "serve/serve.h"
#include "serve/workload.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

namespace gnnpart {
namespace check {

/// Full structural validators (DESIGN.md §8). Every function returns OK or
/// a FailedPrecondition status whose message starts with the stable name of
/// the violated invariant (e.g. "graph/self-loop: ..."), so failures are
/// greppable and each corruption mode is distinguishable in tests.
///
/// Validators are independent re-derivations: they recompute the checked
/// property from the raw structure with a deliberately simple serial
/// implementation instead of trusting the code under test. The replica
/// masks are the exception: ValidateReplicaMasks and CheckEdgeMetrics take
/// them from ComputeReplicaMasks, whose loop is already the simple one. They are O(n)
/// to O(E log d) and meant for module boundaries, the `gnnpart_cli check`
/// subcommand and test fixtures — not for inner loops (use the
/// GNNPART_CHECK_* macros from check/check.h there).

/// CSR well-formedness: sorted, duplicate-free, self-loop-free symmetric
/// adjacency; sorted canonical edge list consistent with the adjacency and
/// with the generator contract (undirected edges stored once with
/// src < dst).
Status ValidateGraph(const Graph& graph);

/// Vertex-cut validity: every canonical edge assigned exactly once to a
/// partition id in [0, k), k in [1, kMaxPartitions].
Status ValidateEdgePartitioning(const Graph& graph,
                                const EdgePartitioning& parts);

/// Edge-cut validity: every vertex assigned exactly once to a partition id
/// in [0, k), k in [1, kMaxPartitions].
Status ValidateVertexPartitioning(const Graph& graph,
                                  const VertexPartitioning& parts);

/// Replica masks consistent with the assignment: masks[v] has exactly the
/// bits of the partitions owning an edge incident to v. The expected masks
/// come from ComputeReplicaMasks, so this proves that the caller's vector
/// matches the assignment; it does not re-derive the mask loop itself.
/// That loop is fenced independently by the hand-computed masks of
/// ReplicaMaskTest.MasksMatchAssignments, the per-edge containment check
/// of partition_property_test, and
/// PartitionedAggregateTest.SyncVolumeMatchesMetrics, whose aggregate adds
/// every edge into its partition's partial rows and must sync exactly
/// total_replicas partials for every partitioner.
Status ValidateReplicaMasks(const Graph& graph, const EdgePartitioning& parts,
                            const std::vector<uint64_t>& masks);

/// Recomputes every EdgePartitionMetrics field serially from the
/// ComputeReplicaMasks masks and compares bit-exactly (==, not
/// approximately) with `reported`. This proves the metrics fold of the
/// masks (edge, vertex and synced counts, replicas, RF, balances) against
/// its own per-field fold; the masks themselves are fenced by the tests
/// named at ValidateReplicaMasks.
Status CheckEdgeMetrics(const Graph& graph, const EdgePartitioning& parts,
                        const EdgePartitionMetrics& reported);

/// Bit-exact recomputation check for VertexPartitionMetrics.
Status CheckVertexMetrics(const Graph& graph, const VertexPartitioning& parts,
                          const VertexSplit& split,
                          const VertexPartitionMetrics& reported);

/// Epoch-profile shape and accounting: profiles[steps][workers], local +
/// remote input vertices summing to the input set, computation edges equal
/// to the per-hop sum, and hop vectors of consistent length.
Status ValidateProfile(const DistDglEpochProfile& profile);

/// Span invariants of one training epoch of the event log (other record
/// kinds are skipped): spans within the declared epoch shape, non-negative
/// durations/bytes, phases belonging to the epoch's simulator, and BSP
/// barrier alignment (spans of one (step, phase) share t0).
Status ValidateTrace(const obs::EpochEvents& epoch);

/// Per-step phase maxima of the epoch's spans must reconstruct the epoch
/// report's phase seconds bit-exactly (the invariant tying the span
/// timeline to the report path; see trace/analysis.h).
Status CheckTraceReconstructsReport(const obs::EpochEvents& epoch,
                                    const DistDglEpochReport& report);
Status CheckTraceReconstructsReport(const obs::EpochEvents& epoch,
                                    const DistGnnEpochReport& report);

/// Flow conservation of gnnpart::net link accounting: usage vectors shaped
/// for the fabric, all entries finite and non-negative, and per host the
/// delivered egress bytes equal to the offered bytes — bit-exactly for
/// single-route hosts (every host on full-bisection), within 1e-9 relative
/// for hosts whose bytes were split over several routes.
Status ValidateFlowConservation(const net::Fabric& fabric,
                                const net::LinkUsage& usage);

/// Overlap-report integrity: `report` must be bit-exactly what
/// ComputeOverlap(epoch) returns (serial re-derivation), every step's
/// pipelined cost must not exceed its BSP cost, and the epoch identity
/// hidden == bsp - pipelined must hold bit-exactly.
Status ValidateOverlapReport(const obs::EpochEvents& epoch,
                             const net::OverlapReport& report);

/// Split-merge execution integrity (DESIGN.md §11). Checks, in order:
/// plan/partitioning shape ("partition/split-merge-shape"), shard
/// boundaries tiling [0, m) exactly ("partition/split-merge-shard-
/// coverage"), every edge's sub-partition lying in its own shard's id block
/// ("partition/split-merge-sub-range"), the merge matching being total
/// ("partition/split-merge-matching"), and the merged assignment being
/// exactly the composition sub_to_partition[sub_assignment[e]] —
/// conservation: merging relabels sub-partitions, it never reassigns an
/// edge ("partition/split-merge-conservation").
Status ValidateSplitMergePlan(const Graph& graph, const SplitMergePlan& plan,
                              const EdgePartitioning& merged);

/// Serial-equivalence contract ("partition/split-merge-serial-
/// equivalence"): a split-merge run at split factor 1 must be bit-identical
/// to the sequential partitioner. Re-runs `sequential` at (k, seed) and
/// compares the full assignment vector against `merged`.
Status CheckSplitMergeSerialEquivalence(const Graph& graph,
                                        const EdgePartitioner& sequential,
                                        PartitionId k, uint64_t seed,
                                        const EdgePartitioning& merged);

/// Dynamic-graph arrival schedule integrity ("dyn/stream-monotonicity"):
/// the arrival order is a permutation of [0, num_edges), and the batch
/// boundaries are non-decreasing, start at 0, end at num_edges, and count
/// growth_batches + 1 batches — so every edge arrives exactly once and the
/// arrived prefix only ever grows.
Status ValidateEdgeStream(const dyn::EdgeStream& stream, size_t num_edges);

/// Incremental-assignment continuity ("dyn/assignment-continuity"): between
/// two consecutive intervals with no repartition event, an entity that was
/// already materialized before the batch (`frozen[i] != 0`) must keep its
/// assignment — growth may only place *new* entities.
Status ValidateAssignmentContinuity(const std::vector<PartitionId>& before,
                                    const std::vector<PartitionId>& after,
                                    const std::vector<uint8_t>& frozen);

/// Migration-diff conservation ("dyn/migration-diff-conservation"):
/// re-derives the migration plan serially from the raw before/after
/// assignments (and replica masks, when priced) and compares every count,
/// byte total and per-partition egress figure exactly, including the
/// identity total_bytes == entity_bytes + replica_bytes and the egress
/// vector summing to total_bytes — the diff engine must neither invent nor
/// lose traffic.
Status ValidateMigrationPlan(const std::vector<PartitionId>& before,
                             const std::vector<PartitionId>& after,
                             const std::vector<uint8_t>& materialized,
                             uint64_t bytes_per_entity,
                             const std::vector<uint64_t>& masks_before,
                             const std::vector<uint64_t>& masks_after,
                             uint64_t bytes_per_replica,
                             const dyn::MigrationPlan& plan);

/// Serving request-trace integrity ("serve/request-order"): sequential
/// ids, non-decreasing arrivals inside [0, duration), ego vertices within
/// the graph, and every request homed at its ego's owning partition.
Status ValidateServeRequests(const std::vector<serve::ServeRequest>& requests,
                             const serve::RequestGenConfig& config,
                             const VertexPartitioning& owners);

/// Batching integrity ("serve/batch-shape"): sequential batch ids in
/// non-decreasing dispatch order, every request in exactly one batch, all
/// members sharing the batch's partition, batch sizes in [1, max_batch],
/// and each dispatch within [newest member arrival, oldest + max_wait].
Status ValidateServeBatches(const std::vector<serve::ServeRequest>& requests,
                            const std::vector<serve::ServeBatch>& batches,
                            PartitionId k, const serve::BatchConfig& config);

/// Serving-report accounting ("serve/latency-accounting"): one finite
/// latency per request equal to its batch's completion minus its arrival
/// (so batch members share a completion instant), latency >= queue wait
/// >= 0, queue_seconds re-summed in batch emission order bit-exactly, and
/// the exact quantiles re-derived from the sorted latencies bit-exactly.
Status ValidateServeReport(const std::vector<serve::ServeRequest>& requests,
                           const std::vector<serve::ServeBatch>& batches,
                           const serve::ServeReport& report);

/// Causal-event-log integrity (DESIGN.md §14). Checks, in order: record
/// shape — known simulator, phases in its vocabulary
/// (trace::StepPhases: a simulator's five phases; "serve" epochs use
/// queue/sampling/feature/forward),
/// steps/workers declared and respected, link ids within the declared
/// fabric, flow endpoints in range ("obs/event-shape") — then time
/// semantics: finite non-negative span durations with comm shares in
/// [0, dur], flow windows ordered t0 <= t1f <= t1, and per (epoch, link)
/// utilization samples with non-negative rates, at least one active flow,
/// and monotone non-overlapping intervals ("obs/event-time").
Status ValidateEventLog(const obs::EventLog& log);

/// Attribution integrity ("obs/event-attribution"): the explain engine's
/// components must be finite, congestion non-negative, satisfy
/// total == ((compute + wait) + congestion) + migration bit-exactly, and
/// the solved wait must agree with the independently summed uncontended
/// communication plus queueing time within 1e-6 relative (they differ
/// only by FP grouping; queueing exists only in "serve" epochs).
Status CheckEventAttribution(const obs::EventLog& log);

}  // namespace check
}  // namespace gnnpart

#endif  // GNNPART_CHECK_VALIDATORS_H_
