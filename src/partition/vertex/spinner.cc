#include "partition/vertex/spinner.h"

#include <bit>
#include <numeric>
#include <vector>

#include "check/check.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace gnnpart {

Result<VertexPartitioning> SpinnerPartitioner::Partition(
    const Graph& graph, const VertexSplit& split, PartitionId k,
    uint64_t seed) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, split, k));
  const size_t n = graph.num_vertices();
  Rng rng(seed);

  VertexPartitioning result;
  result.k = k;
  result.assignment.resize(n);
  std::vector<uint64_t> load(k, 0);
  for (VertexId v = 0; v < n; ++v) {
    PartitionId p = static_cast<PartitionId>(HashCombine64(seed, v) % k);
    result.assignment[v] = p;
    ++load[p];
  }

  const double capacity =
      capacity_slack_ * static_cast<double>(n) / static_cast<double>(k);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  // counts[v*k + p] = v's neighbours in partition p: built once, then kept
  // current on each migration instead of recounted on every visit.
  auto count_rows = [&] {
    std::vector<uint32_t> counts(n * size_t{k}, 0);
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId u : graph.Neighbors(v)) {
        ++counts[size_t{v} * k + result.assignment[u]];
      }
    }
    return counts;
  };
  std::vector<uint32_t> counts = count_rows();

  uint64_t iterations = 0;  // accumulated locally, published once below
  uint64_t total_migrations = 0;
  for (int iter = 0; iter < max_iterations_; ++iter) {
    ++iterations;
    rng.Shuffle(&order);
    size_t migrations = 0;
    for (VertexId v : order) {
      auto nbrs = graph.Neighbors(v);
      if (nbrs.empty()) continue;
      const uint32_t* label_count = counts.data() + size_t{v} * k;
      PartitionId own = result.assignment[v];
      double deg = static_cast<double>(nbrs.size());
      PartitionId best = own;
      double best_score = -1.0;
      // Scored in index order: own and every partition holding a neighbour,
      // as a bit per partition (k <= 64) built without a branch each.
      uint64_t scored = uint64_t{1} << own;
      for (PartitionId p = 0; p < k; ++p) {
        scored |= uint64_t(label_count[p] != 0) << p;
      }
      for (; scored != 0; scored &= scored - 1) {
        const auto p = static_cast<PartitionId>(std::countr_zero(scored));
        double locality = static_cast<double>(label_count[p]) / deg;
        double penalty = 1.0 - static_cast<double>(load[p]) / capacity;
        if (penalty < 0) penalty = 0;
        double score = locality + penalty;
        if (score > best_score) {
          best_score = score;
          best = p;
        }
      }
      if (best != own && load[best] < capacity) {
        result.assignment[v] = best;
        --load[own];
        ++load[best];
        ++migrations;
        for (VertexId u : nbrs) {
          uint32_t* row = counts.data() + size_t{u} * k;
          --row[own];
          ++row[best];
        }
      }
    }
    total_migrations += migrations;
    if (static_cast<double>(migrations) <
        convergence_threshold_ * static_cast<double>(n)) {
      break;
    }
  }
  GNNPART_CHECK_PARANOID(count_rows() == counts,
                         "Spinner: a neighbour-count row drifted from the "
                         "adjacency");
  obs::Count("partition/vertex/" + name() + "/vertices_assigned", n,
             "vertices");
  obs::Count("partition/vertex/" + name() + "/lp_iterations", iterations,
             "iterations");
  obs::Count("partition/vertex/" + name() + "/migrations", total_migrations,
             "moves");
  return result;
}

}  // namespace gnnpart
