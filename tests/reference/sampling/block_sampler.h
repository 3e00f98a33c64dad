#ifndef GNNPART_SAMPLING_BLOCK_SAMPLER_H_
#define GNNPART_SAMPLING_BLOCK_SAMPLER_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/graph.h"
#include "sampling/neighbor_sampler.h"

namespace gnnpart {

/// A materialized mini-batch computation graph: the actual subgraph a
/// DGL-style trainer runs forward/backward on (NeighborSampler only counts;
/// BlockSampler extracts).
struct SampledBlock {
  /// Global vertex ids of the block; the batch's seed vertices come first.
  std::vector<VertexId> vertices;
  size_t num_seeds = 0;
  /// Sampled edges in *local* indices (positions into `vertices`).
  std::vector<Edge> local_edges;

  /// Builds the block's local graph (undirected, deduplicated) for the
  /// reference GNN layers.
  Result<Graph> BuildLocalGraph() const;
};

/// Extracts mini-batch subgraphs by layered fan-out sampling, mirroring
/// NeighborSampler's expansion but materializing vertices and edges.
class BlockSampler {
 public:
  explicit BlockSampler(const Graph& graph);

  /// Samples the multi-hop block for `seeds` (duplicates among seeds are
  /// collapsed). Deterministic in the rng state.
  SampledBlock SampleBlock(std::span<const VertexId> seeds,
                           const std::vector<size_t>& fanouts, Rng* rng) const;

 private:
  const Graph& graph_;
  mutable std::vector<uint32_t> local_index_;
  mutable std::vector<uint32_t> visit_stamp_;
  mutable uint32_t stamp_ = 0;
};

namespace check {

/// Sampled-block sanity: seeds first and unique vertices, local edge
/// indices in range, every sampled edge present in the graph, and no source
/// vertex exceeding the largest fan-out. Failures are named like the
/// pipeline's validators in check/validators.h ("block/...").
Status ValidateBlock(const Graph& graph, const SampledBlock& block,
                     const std::vector<size_t>& fanouts);

}  // namespace check
}  // namespace gnnpart

#endif  // GNNPART_SAMPLING_BLOCK_SAMPLER_H_
