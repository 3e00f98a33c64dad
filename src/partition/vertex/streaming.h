#ifndef GNNPART_PARTITION_VERTEX_STREAMING_H_
#define GNNPART_PARTITION_VERTEX_STREAMING_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "partition/partitioning.h"

namespace gnnpart {

// The streaming vertex-placement step shared by LDG, ReLDG, Fennel, their
// restreams and dyn's placement of arriving vertices: count the vertex's
// placed neighbours per partition, score every partition, pick one. An
// objective scores partition p from v's neighbour count n there, a bonus
// (the restream's stay bonus on v's current partition, else 0) and p's
// load, and says whether p may receive v at all.

/// LDG [Stanton & Kliot, KDD'12]: neighbours damped by the multiplicative
/// penalty 1 - |P|/C; every partition is open.
struct LdgObjective {
  double capacity;

  double Score(uint32_t n, double bonus, uint64_t load) const {
    double penalty = 1.0 - static_cast<double>(load) / capacity;
    if (penalty < 0) penalty = 0;
    return (1.0 + static_cast<double>(n) + bonus) * penalty;
  }
  bool Open(uint64_t /*load*/) const { return true; }
};

/// Fennel [Tsourakakis et al., WSDM'14]: neighbours minus the interpolated
/// cost alpha * gamma * |P|^(gamma-1); a partition is open below capacity.
struct FennelObjective {
  double alpha_gamma;  // alpha * gamma
  double gamma;
  double capacity;

  double Score(uint32_t n, double bonus, uint64_t load) const {
    return static_cast<double>(n) + bonus -
           alpha_gamma * std::pow(static_cast<double>(load), gamma - 1.0);
  }
  bool Open(uint64_t load) const {
    return static_cast<double>(load) < capacity;
  }
};

/// Fills `count` (k entries) with v's neighbours per partition, counting
/// only the neighbours u with placed(u): unplaced ones carry no partition
/// (kInvalidPartition) or a placeholder one.
template <typename Placed>
void CountNeighbourParts(const Graph& graph, VertexId v,
                         const std::vector<PartitionId>& assignment,
                         Placed placed, std::vector<uint32_t>* count) {
  std::fill(count->begin(), count->end(), 0);
  for (VertexId u : graph.Neighbors(v)) {
    if (placed(u)) ++(*count)[assignment[u]];
  }
}

/// Fresh placement: the open partition with the best score wins; ties go to
/// the lighter partition, then to the lower index. Returns 0 when no
/// partition is open. Adds the number of open partitions scored to *evals.
template <typename Objective>
PartitionId PlaceBest(const Objective& objective,
                      const std::vector<uint32_t>& count,
                      const std::vector<uint64_t>& load, uint64_t* evals) {
  const PartitionId k = static_cast<PartitionId>(load.size());
  PartitionId best = 0;
  uint64_t open = 0;  // also "found": no open partition scored yet while 0
  double best_score = 0;
  for (PartitionId p = 0; p < k; ++p) {
    if (!objective.Open(load[p])) continue;
    const double score = objective.Score(count[p], 0.0, load[p]);
    if (open++ == 0 || score > best_score ||
        (score == best_score && load[p] < load[best])) {
      best = p;
      best_score = score;
    }
  }
  *evals += open;
  return best;
}

/// Streams every vertex `passes` times, reshuffling the order from
/// Rng(seed) at the start of each pass, and places each with PlaceBest over
/// its already-placed neighbours. A vertex placed by an earlier pass has its
/// load removed before it is scored again. Adds PlaceBest's evaluations to
/// *evals.
template <typename Objective>
VertexPartitioning StreamVertices(const Graph& graph, PartitionId k,
                                  uint64_t seed, int passes,
                                  const Objective& objective,
                                  uint64_t* evals) {
  const size_t n = graph.num_vertices();
  VertexPartitioning result;
  result.k = k;
  std::vector<PartitionId>& assignment = result.assignment;
  assignment.assign(n, kInvalidPartition);
  const auto assigned = [&assignment](VertexId u) {
    return assignment[u] != kInvalidPartition;
  };
  std::vector<uint64_t> load(k, 0);
  std::vector<uint32_t> count(k, 0);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (int pass = 0; pass < passes; ++pass) {
    rng.Shuffle(&order);
    for (VertexId v : order) {
      if (assigned(v)) --load[assignment[v]];
      CountNeighbourParts(graph, v, assignment, assigned, &count);
      const PartitionId best = PlaceBest(objective, count, load, evals);
      assignment[v] = best;
      ++load[best];
    }
  }
  return result;
}

/// Warm restreaming (ReLDG, ReFennel) from a complete `prior` assignment.
/// The stream order is shuffled once from Rng(seed) and reused by every
/// pass: reshuffling would make "zero moves" a property of one ordering
/// rather than of the assignment. Each vertex is scored with its own load
/// removed. It stays on its current partition, scored with `stay_bonus`
/// added to its neighbour count whether or not that partition is open,
/// unless an open partition scores strictly higher; the first such
/// partition of highest score wins. Ties never move, and passes stop after
/// one with zero moves, so re-running from a converged assignment returns it
/// unchanged with *last_pass_moves == 0. Validates the prior (messages
/// prefixed by `name`) and publishes partition/vertex/<name>/
/// repartition_{moves,passes}.
template <typename Objective>
Result<VertexPartitioning> RestreamVertices(
    const Graph& graph, PartitionId k, uint64_t seed,
    const std::vector<PartitionId>& prior, double stay_bonus, int max_passes,
    const Objective& objective, const std::string& name,
    uint64_t* last_pass_moves) {
  const size_t n = graph.num_vertices();
  if (prior.size() != n) {
    return Status::InvalidArgument(name +
                                   " repartition: prior size mismatch");
  }
  for (PartitionId p : prior) {
    if (p >= k) {
      return Status::InvalidArgument(
          name + " repartition: prior assignment out of range");
    }
  }
  VertexPartitioning result;
  result.k = k;
  std::vector<PartitionId>& assignment = result.assignment;
  assignment = prior;
  std::vector<uint64_t> load(k, 0);
  for (PartitionId p : prior) ++load[p];
  std::vector<uint32_t> count(k, 0);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&order);

  uint64_t moves = 0;
  uint64_t pass_moves = 0;
  int passes_run = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++passes_run;
    pass_moves = 0;
    for (VertexId v : order) {
      const PartitionId cur = assignment[v];
      --load[cur];
      CountNeighbourParts(graph, v, assignment,
                          [](VertexId) { return true; }, &count);
      PartitionId best = cur;
      double best_score = objective.Score(count[cur], stay_bonus, load[cur]);
      for (PartitionId p = 0; p < k; ++p) {
        if (p == cur || !objective.Open(load[p])) continue;
        const double score = objective.Score(count[p], 0.0, load[p]);
        if (score > best_score) {
          best_score = score;
          best = p;
        }
      }
      assignment[v] = best;
      ++load[best];
      if (best != cur) ++pass_moves;
    }
    moves += pass_moves;
    if (pass_moves == 0) break;
  }
  if (last_pass_moves != nullptr) *last_pass_moves = pass_moves;
  obs::Count("partition/vertex/" + name + "/repartition_moves", moves,
             "moves");
  obs::Count("partition/vertex/" + name + "/repartition_passes",
             static_cast<uint64_t>(passes_run), "passes");
  return result;
}

}  // namespace gnnpart

#endif  // GNNPART_PARTITION_VERTEX_STREAMING_H_
