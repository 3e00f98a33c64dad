// The streaming vertex partitioners as they stood before they shared one
// placement kernel: LDG, ReLDG and Fennel each with their own loop that
// counts a vertex's placed neighbours per partition, scores every partition
// and picks one. Kept verbatim as the reference that the engines are
// diff-tested against bit for bit (partition_streaming_oracle_test).
#include "streaming_oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace oracle {
namespace {

// The engines' default parameters (ldg.h, reldg.h, fennel.h).
constexpr double kLdgSlack = 1.05;
constexpr double kFennelGamma = 1.5;
constexpr double kFennelLoadSlack = 1.1;

}  // namespace

Result<VertexPartitioning> LdgPartition(const Graph& graph, PartitionId k,
                                        uint64_t seed) {
  const double slack_ = kLdgSlack;
  const std::string name = "LDG";
  const size_t n = graph.num_vertices();
  VertexPartitioning result;
  result.k = k;
  result.assignment.assign(n, kInvalidPartition);

  const double capacity =
      slack_ * static_cast<double>(n) / static_cast<double>(k);
  std::vector<uint64_t> load(k, 0);
  std::vector<uint32_t> neighbor_count(k, 0);

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&order);

  uint64_t score_evals = 0;
  for (VertexId v : order) {
    std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
    for (VertexId u : graph.Neighbors(v)) {
      PartitionId pu = result.assignment[u];
      if (pu != kInvalidPartition) ++neighbor_count[pu];
    }
    PartitionId best = 0;
    double best_score = -1.0;
    uint64_t best_load = ~0ULL;
    score_evals += k;
    for (PartitionId p = 0; p < k; ++p) {
      double penalty = 1.0 - static_cast<double>(load[p]) / capacity;
      if (penalty < 0) penalty = 0;
      double score = (1.0 + static_cast<double>(neighbor_count[p])) * penalty;
      if (score > best_score ||
          (score == best_score && load[p] < best_load)) {
        best_score = score;
        best = p;
        best_load = load[p];
      }
    }
    result.assignment[v] = best;
    ++load[best];
  }
  obs::Count("partition/vertex/" + name + "/vertices_assigned", n,
             "vertices");
  obs::Count("partition/vertex/" + name + "/score_evals", score_evals,
             "evals");
  return result;
}

Result<VertexPartitioning> ReldgPartition(const Graph& graph, PartitionId k,
                                          uint64_t seed, int passes) {
  const int passes_ = passes;
  const double slack_ = kLdgSlack;
  const std::string name = "ReLDG";
  const size_t n = graph.num_vertices();
  VertexPartitioning result;
  result.k = k;
  result.assignment.assign(n, kInvalidPartition);

  const double capacity =
      slack_ * static_cast<double>(n) / static_cast<double>(k);
  std::vector<uint64_t> load(k, 0);
  std::vector<uint32_t> neighbor_count(k, 0);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);

  uint64_t placements = 0;
  for (int pass = 0; pass < passes_; ++pass) {
    rng.Shuffle(&order);
    for (VertexId v : order) {
      PartitionId old = result.assignment[v];
      if (old != kInvalidPartition) --load[old];  // re-place this vertex
      std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
      for (VertexId u : graph.Neighbors(v)) {
        PartitionId pu = result.assignment[u];
        if (pu != kInvalidPartition) ++neighbor_count[pu];
      }
      PartitionId best = 0;
      double best_score = -1.0;
      uint64_t best_load = ~0ULL;
      for (PartitionId p = 0; p < k; ++p) {
        double penalty = 1.0 - static_cast<double>(load[p]) / capacity;
        if (penalty < 0) penalty = 0;
        double score =
            (1.0 + static_cast<double>(neighbor_count[p])) * penalty;
        if (score > best_score ||
            (score == best_score && load[p] < best_load)) {
          best_score = score;
          best = p;
          best_load = load[p];
        }
      }
      result.assignment[v] = best;
      ++load[best];
      ++placements;
    }
  }
  obs::Count("partition/vertex/" + name + "/vertices_assigned", n,
             "vertices");
  obs::Count("partition/vertex/" + name + "/placements", placements,
             "placements");
  obs::Count("partition/vertex/" + name + "/passes",
             static_cast<uint64_t>(passes_), "passes");
  return result;
}

Result<VertexPartitioning> ReldgRepartition(
    const Graph& graph, PartitionId k, uint64_t seed,
    const std::vector<PartitionId>& prior, double stay_bonus, int max_passes,
    uint64_t* last_pass_moves) {
  const double slack_ = kLdgSlack;
  const std::string name = "ReLDG";
  const size_t n = graph.num_vertices();
  if (prior.size() != n) {
    return Status::InvalidArgument("ReLDG repartition: prior size mismatch");
  }
  for (PartitionId p : prior) {
    if (p >= k) {
      return Status::InvalidArgument(
          "ReLDG repartition: prior assignment out of range");
    }
  }
  VertexPartitioning result;
  result.k = k;
  result.assignment = prior;

  const double capacity =
      slack_ * static_cast<double>(n) / static_cast<double>(k);
  std::vector<uint64_t> load(k, 0);
  for (PartitionId p : prior) ++load[p];
  std::vector<uint32_t> neighbor_count(k, 0);
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
      const PartitionId cur = result.assignment[v];
      --load[cur];  // re-place this vertex
      std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
      for (VertexId u : graph.Neighbors(v)) {
        PartitionId pu = result.assignment[u];
        if (pu != kInvalidPartition) ++neighbor_count[pu];
      }
      PartitionId best = cur;
      double cur_penalty = 1.0 - static_cast<double>(load[cur]) / capacity;
      if (cur_penalty < 0) cur_penalty = 0;
      double best_score =
          (1.0 + static_cast<double>(neighbor_count[cur]) + stay_bonus) *
          cur_penalty;
      for (PartitionId p = 0; p < k; ++p) {
        if (p == cur) continue;
        double penalty = 1.0 - static_cast<double>(load[p]) / capacity;
        if (penalty < 0) penalty = 0;
        double score =
            (1.0 + static_cast<double>(neighbor_count[p])) * penalty;
        // Strictly better only: ties never move, so fixed points are stable.
        if (score > best_score) {
          best_score = score;
          best = p;
        }
      }
      result.assignment[v] = best;
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

Result<VertexPartitioning> FennelPartition(const Graph& graph, PartitionId k,
                                           uint64_t seed) {
  const double gamma_ = kFennelGamma;
  const double load_slack_ = kFennelLoadSlack;
  const std::string name = "Fennel";
  const size_t n = graph.num_vertices();
  const double m = static_cast<double>(graph.num_edges());
  VertexPartitioning result;
  result.k = k;
  result.assignment.assign(n, kInvalidPartition);

  // Fennel's alpha: m * k^(gamma-1) / n^gamma.
  const double alpha = m * std::pow(static_cast<double>(k), gamma_ - 1.0) /
                       std::pow(static_cast<double>(n), gamma_);
  const double capacity =
      load_slack_ * static_cast<double>(n) / static_cast<double>(k);

  std::vector<uint64_t> load(k, 0);
  std::vector<uint32_t> neighbor_count(k, 0);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&order);

  uint64_t score_evals = 0;
  for (VertexId v : order) {
    std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
    for (VertexId u : graph.Neighbors(v)) {
      PartitionId pu = result.assignment[u];
      if (pu != kInvalidPartition) ++neighbor_count[pu];
    }
    PartitionId best = 0;
    double best_score = -1e300;
    for (PartitionId p = 0; p < k; ++p) {
      if (static_cast<double>(load[p]) >= capacity) continue;
      ++score_evals;
      double penalty =
          alpha * gamma_ *
          std::pow(static_cast<double>(load[p]), gamma_ - 1.0);
      double score = static_cast<double>(neighbor_count[p]) - penalty;
      if (score > best_score ||
          (score == best_score && load[p] < load[best])) {
        best_score = score;
        best = p;
      }
    }
    result.assignment[v] = best;
    ++load[best];
  }
  obs::Count("partition/vertex/" + name + "/vertices_assigned", n,
             "vertices");
  obs::Count("partition/vertex/" + name + "/score_evals", score_evals,
             "evals");
  return result;
}

Result<VertexPartitioning> FennelRepartition(
    const Graph& graph, PartitionId k, uint64_t seed,
    const std::vector<PartitionId>& prior, double stay_bonus, int max_passes,
    uint64_t* last_pass_moves) {
  const double gamma_ = kFennelGamma;
  const double load_slack_ = kFennelLoadSlack;
  const std::string name = "Fennel";
  const size_t n = graph.num_vertices();
  if (prior.size() != n) {
    return Status::InvalidArgument("Fennel repartition: prior size mismatch");
  }
  for (PartitionId p : prior) {
    if (p >= k) {
      return Status::InvalidArgument(
          "Fennel repartition: prior assignment out of range");
    }
  }
  const double m = static_cast<double>(graph.num_edges());
  VertexPartitioning result;
  result.k = k;
  result.assignment = prior;

  const double alpha = m * std::pow(static_cast<double>(k), gamma_ - 1.0) /
                       std::pow(static_cast<double>(n), gamma_);
  const double capacity =
      load_slack_ * static_cast<double>(n) / static_cast<double>(k);

  std::vector<uint64_t> load(k, 0);
  for (PartitionId p : prior) ++load[p];
  std::vector<uint32_t> neighbor_count(k, 0);
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
      const PartitionId cur = result.assignment[v];
      --load[cur];  // score every candidate with v removed
      std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
      for (VertexId u : graph.Neighbors(v)) {
        PartitionId pu = result.assignment[u];
        if (pu != kInvalidPartition) ++neighbor_count[pu];
      }
      PartitionId best = cur;
      double best_score =
          static_cast<double>(neighbor_count[cur]) + stay_bonus -
          alpha * gamma_ *
              std::pow(static_cast<double>(load[cur]), gamma_ - 1.0);
      for (PartitionId p = 0; p < k; ++p) {
        if (p == cur) continue;
        if (static_cast<double>(load[p]) >= capacity) continue;
        double penalty =
            alpha * gamma_ *
            std::pow(static_cast<double>(load[p]), gamma_ - 1.0);
        double score = static_cast<double>(neighbor_count[p]) - penalty;
        // Strictly better only: ties never move, so fixed points are stable.
        if (score > best_score) {
          best_score = score;
          best = p;
        }
      }
      result.assignment[v] = best;
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

}  // namespace oracle
}  // namespace gnnpart
