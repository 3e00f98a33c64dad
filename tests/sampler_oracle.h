#ifndef GNNPART_TESTS_SAMPLER_ORACLE_H_
#define GNNPART_TESTS_SAMPLER_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "partition/partitioning.h"
#include "sampling/neighbor_sampler.h"

namespace gnnpart {
namespace oracle {

/// Reference sampler: same contract as gnnpart::NeighborSampler
/// (sampling/neighbor_sampler.h), computed by fanning frontier chunks out on
/// the thread pool, copying each neighbourhood for its partial Fisher-Yates,
/// merging the chunk lists serially and counting input locality in a
/// parallel reduction. Slow, simple, and the bit-exact definition the
/// two-pass kernel must reproduce, counters included.
class NeighborSampler {
 public:
  explicit NeighborSampler(const Graph& graph);

  MiniBatchProfile SampleBatch(std::span<const VertexId> seeds,
                               const std::vector<size_t>& fanouts,
                               const VertexPartitioning* parts,
                               PartitionId owner, Rng* rng) const;

 private:
  const Graph& graph_;
  mutable std::vector<uint32_t> visit_stamp_;
  mutable uint32_t stamp_ = 0;
};

}  // namespace oracle
}  // namespace gnnpart

#endif  // GNNPART_TESTS_SAMPLER_ORACLE_H_
