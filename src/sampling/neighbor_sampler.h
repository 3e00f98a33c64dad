#ifndef GNNPART_SAMPLING_NEIGHBOR_SAMPLER_H_
#define GNNPART_SAMPLING_NEIGHBOR_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "partition/partitioning.h"

namespace gnnpart {

/// Size and locality profile of one sampled mini-batch computation graph.
/// These are the quantities DistDGL's data-loading phase is made of, and the
/// paper's Figures 14, 24b and 26c report them directly.
struct MiniBatchProfile {
  /// Seed (training) vertices of the batch.
  size_t seeds = 0;
  /// Distinct vertices required to compute the batch (all hops + seeds) —
  /// the paper's "input vertices".
  size_t input_vertices = 0;
  /// Input vertices whose features live on the sampling worker's partition.
  size_t local_input_vertices = 0;
  /// Input vertices fetched from other workers — the paper's
  /// "remote vertices"; drives the feature-loading phase.
  size_t remote_input_vertices = 0;
  /// Edges of the sampled computation graph, summed over layers; drives the
  /// forward/backward compute cost.
  size_t computation_edges = 0;
  /// Frontier vertices whose adjacency lists live on a remote partition —
  /// each needs a sampling RPC; drives the sampling phase's network share.
  size_t remote_sampling_requests = 0;
  /// Distinct vertices per hop, seeds first.
  std::vector<size_t> frontier_sizes;
  /// Sampled edges per hop (hop_edges[i] = edges drawn when expanding from
  /// hop i's frontier); per-layer compute costs are derived from these.
  std::vector<size_t> hop_edges;
};

/// DGL-style layered neighbourhood sampler. For each training step a worker
/// samples, layer by layer, up to fanout[l] neighbours of every frontier
/// vertex; the union of all visited vertices forms the batch's input set.
///
/// The sampler runs against the *real* graph and a vertex partitioning, so
/// locality quantities (remote vertices, remote sampling requests) are
/// measured, not modeled.
///
/// SampleBatch is serial within a batch; batches run concurrently through
/// ParallelSample, one sampler per chunk. Each layer makes two passes. The
/// draw pass walks the frontier in 256-vertex chunks, each with its own RNG
/// stream (ChunkRng(layer seed, chunk index)), so 256 is the boundary of
/// every stream and the draws do not depend on the thread count. It runs a
/// partial Fisher-Yates on neighbour *positions* through a stamped position
/// map and appends a pointer per pick, copying no neighbourhood. The gather
/// pass then reads the picks in order, prefetching ahead, and dedupes them
/// branchlessly against the visit stamps into the next frontier, so
/// first-visit order is pick order. Concurrent SampleBatch calls on the
/// *same* sampler are unsupported (shared scratch) — use one sampler per
/// worker.
class NeighborSampler {
 public:
  explicit NeighborSampler(const Graph& graph);

  /// Samples one mini-batch for a worker owning partition `owner`.
  /// `fanouts` is indexed from the seed side (fanouts[0] = first expansion).
  /// Pass parts = nullptr to profile a non-partitioned (single-machine)
  /// batch; locality fields are then zero.
  MiniBatchProfile SampleBatch(std::span<const VertexId> seeds,
                               const std::vector<size_t>& fanouts,
                               const VertexPartitioning* parts,
                               PartitionId owner, Rng* rng) const;

 private:
  /// One slot of the Fisher-Yates position map: it holds `pos` if stamped
  /// with the current vertex's stamp, else its own index.
  struct Slot {
    uint32_t stamp = 0;
    uint32_t pos = 0;
  };

  const Graph& graph_;
  // Scratch reused across calls (mutable so SampleBatch stays const): visit
  // stamps over all vertices, the frontier and next-frontier buffers, one
  // layer's picks, and the position map, grown to the largest degree
  // sampled without replacement.
  mutable std::vector<uint32_t> visit_stamp_;
  mutable uint32_t stamp_ = 0;
  mutable std::vector<VertexId> frontier_;
  mutable std::vector<VertexId> next_;
  mutable std::vector<const VertexId*> picks_;
  mutable std::vector<Slot> slots_;
  mutable uint32_t slot_stamp_ = 0;
};

/// ParallelFor(n, 1, ...) over batch-sampling chunks, each handed a sampler
/// borrowed from a free list. A sampler carries an O(|V|) visit-stamp array,
/// so building one per batch would swamp small batches with allocation;
/// SampleBatch resets its scratch per call, so reuse is output-neutral, and
/// live samplers are bounded by the chunks running at once. Free-list hits
/// depend on chunk scheduling, so `<metric_prefix>/sampler_reuse` and
/// `<metric_prefix>/sampler_alloc` are det:false counters.
void ParallelSample(
    const Graph& graph, size_t n, const std::string& metric_prefix,
    const std::function<void(const NeighborSampler& sampler, size_t begin,
                             size_t end)>& fn);

}  // namespace gnnpart

#endif  // GNNPART_SAMPLING_NEIGHBOR_SAMPLER_H_
