// Spinner's label-propagation loop as it stood before its per-vertex count
// rows: every visit refills a k-wide count array from the neighbourhood.
// Kept verbatim as the reference that SpinnerPartitioner is diff-tested
// against bit for bit (partition_spinner_oracle_test).
#include "spinner_oracle.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace oracle {

Result<VertexPartitioning> SpinnerPartition(const Graph& graph, PartitionId k,
                                            uint64_t seed) {
  // SpinnerPartitioner's defaults (spinner.h).
  const int max_iterations_ = 40;
  const double capacity_slack_ = 1.05;
  const double convergence_threshold_ = 0.001;
  const std::string name = "Spinner";
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
  std::vector<uint32_t> label_count(k, 0);

  uint64_t iterations = 0;  // accumulated locally, published once below
  uint64_t total_migrations = 0;
  for (int iter = 0; iter < max_iterations_; ++iter) {
    ++iterations;
    rng.Shuffle(&order);
    size_t migrations = 0;
    for (VertexId v : order) {
      auto nbrs = graph.Neighbors(v);
      if (nbrs.empty()) continue;
      std::fill(label_count.begin(), label_count.end(), 0);
      for (VertexId u : nbrs) ++label_count[result.assignment[u]];
      PartitionId own = result.assignment[v];
      double deg = static_cast<double>(nbrs.size());
      PartitionId best = own;
      double best_score = -1.0;
      for (PartitionId p = 0; p < k; ++p) {
        if (label_count[p] == 0 && p != own) continue;
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
      }
    }
    total_migrations += migrations;
    if (static_cast<double>(migrations) <
        convergence_threshold_ * static_cast<double>(n)) {
      break;
    }
  }
  obs::Count("partition/vertex/" + name + "/vertices_assigned", n,
             "vertices");
  obs::Count("partition/vertex/" + name + "/lp_iterations", iterations,
             "iterations");
  obs::Count("partition/vertex/" + name + "/migrations", total_migrations,
             "moves");
  return result;
}

}  // namespace oracle
}  // namespace gnnpart
