#include "partition/partitioning.h"

#include <atomic>

#include "common/parallel.h"

namespace gnnpart {

std::vector<uint64_t> EdgePartitioning::EdgeCounts() const {
  std::vector<uint64_t> counts(k, 0);
  for (PartitionId p : assignment) ++counts[p];
  return counts;
}

std::vector<uint64_t> VertexPartitioning::VertexCounts() const {
  std::vector<uint64_t> counts(k, 0);
  for (PartitionId p : assignment) ++counts[p];
  return counts;
}

std::vector<uint64_t> ComputeReplicaMasks(const Graph& graph,
                                          const EdgePartitioning& parts) {
  std::vector<uint64_t> masks(graph.num_vertices(), 0);
  const auto& edges = graph.edges();
  if (DefaultThreads() == 1) {
    for (EdgeId e = 0; e < edges.size(); ++e) {
      uint64_t bit = 1ULL << parts.assignment[e];
      masks[edges[e].src] |= bit;
      masks[edges[e].dst] |= bit;
    }
    return masks;
  }
  // OR is commutative and associative, so concurrent relaxed fetch_or over
  // edge chunks is bit-identical to the serial loop above for any thread
  // count and any scheduling. A hub's bits are nearly always set already,
  // so a relaxed load skips the write: a set bit stays set, and the
  // read-only cache line no longer bounces between threads.
  auto set_bit = [](uint64_t& word, uint64_t bit) {
    std::atomic_ref<uint64_t> ref(word);
    if ((ref.load(std::memory_order_relaxed) & bit) == 0) {
      ref.fetch_or(bit, std::memory_order_relaxed);
    }
  };
  ParallelFor(edges.size(), 16384, [&](size_t begin, size_t end, size_t) {
    for (size_t e = begin; e < end; ++e) {
      const uint64_t bit = 1ULL << parts.assignment[e];
      set_bit(masks[edges[e].src], bit);
      set_bit(masks[edges[e].dst], bit);
    }
  });
  return masks;
}

Status EdgePartitioner::CheckArgs(const Graph& graph, PartitionId k) {
  if (k == 0 || k > kMaxPartitions) {
    return Status::InvalidArgument("k must be in [1, " +
                                   std::to_string(kMaxPartitions) + "]");
  }
  if (graph.num_edges() == 0) {
    return Status::InvalidArgument("cannot partition an empty edge set");
  }
  return Status::Ok();
}

Status VertexPartitioner::CheckArgs(const Graph& graph,
                                    const VertexSplit& split, PartitionId k) {
  if (k == 0 || k > kMaxPartitions) {
    return Status::InvalidArgument("k must be in [1, " +
                                   std::to_string(kMaxPartitions) + "]");
  }
  if (graph.num_vertices() == 0) {
    return Status::InvalidArgument("cannot partition an empty vertex set");
  }
  if (split.num_vertices() != graph.num_vertices()) {
    return Status::InvalidArgument(
        "vertex split size does not match the graph");
  }
  return Status::Ok();
}

}  // namespace gnnpart
