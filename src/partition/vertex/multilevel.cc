#include "partition/vertex/multilevel.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

// Weighted graph used at the coarse levels, in CSR form: the neighbours of
// v are nbr[off[v] .. off[v+1]) with edge weights w at the same positions;
// each undirected edge is stored on both endpoints.
struct WeightedGraph {
  std::vector<uint64_t> vweight;
  std::vector<uint64_t> off{0};
  std::vector<uint32_t> nbr;
  std::vector<uint64_t> w;

  size_t n() const { return vweight.size(); }
  uint64_t total_vweight() const {
    return std::accumulate(vweight.begin(), vweight.end(), uint64_t{0});
  }
};

WeightedGraph FromGraph(const Graph& graph) {
  WeightedGraph wg;
  const size_t n = graph.num_vertices();
  wg.vweight.assign(n, 1);
  wg.off.resize(n + 1);
  for (VertexId v = 0; v < n; ++v) {
    wg.off[v + 1] = wg.off[v] + graph.Degree(v);
  }
  wg.nbr.reserve(wg.off[n]);
  for (VertexId v = 0; v < n; ++v) {
    auto nbrs = graph.Neighbors(v);
    wg.nbr.insert(wg.nbr.end(), nbrs.begin(), nbrs.end());
  }
  wg.w.assign(wg.off[n], 1);
  return wg;
}

struct CoarseLevel {
  WeightedGraph graph;
  // Maps fine vertex -> coarse vertex of the *next* (coarser) level.
  std::vector<uint32_t> fine_to_coarse;
};

// Size-constrained label-propagation clustering (the coarsening scheme
// KaHIP uses for social networks): a few LP rounds where each vertex adopts
// the label with the heaviest edge connectivity, subject to a cluster
// weight cap. Pairwise matching destroys power-law structure; cluster
// contraction preserves the communities the cut must respect. If
// `restrict_parts` is non-null, clusters never cross partitions (V-cycles).
std::vector<uint32_t> LpCluster(const WeightedGraph& g, Rng* rng,
                                uint64_t max_cluster_weight,
                                const std::vector<PartitionId>* restrict_parts) {
  const size_t n = g.n();
  std::vector<uint32_t> label(n);
  std::iota(label.begin(), label.end(), 0);
  std::vector<uint64_t> cluster_weight(g.vweight);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // conn[l] = v's edge weight into cluster l; every edge weight is >= 1, so
  // a zero entry means l is not yet in `touched`.
  std::vector<uint64_t> conn(n, 0);
  std::vector<uint32_t> touched;
  for (int round = 0; round < 4; ++round) {
    rng->Shuffle(&order);
    size_t moves = 0;
    for (uint32_t v : order) {
      const uint64_t begin = g.off[v], end = g.off[v + 1];
      if (begin == end) continue;
      touched.clear();
      for (uint64_t e = begin; e < end; ++e) {
        const uint32_t u = g.nbr[e];
        if (restrict_parts && (*restrict_parts)[u] != (*restrict_parts)[v]) {
          continue;
        }
        const uint32_t lbl = label[u];
        if (conn[lbl] == 0) touched.push_back(lbl);
        conn[lbl] += g.w[e];
      }
      uint32_t own = label[v];
      uint32_t best = own;
      uint64_t best_w = conn[own];
      // Connectivity ties break on the lighter cluster (keeps coarsening
      // balanced), then on the smaller label, so the chosen cluster never
      // depends on the order `touched` lists the candidates in.
      for (uint32_t lbl : touched) {
        const uint64_t w = conn[lbl];
        conn[lbl] = 0;
        if (lbl == own) continue;
        if (cluster_weight[lbl] + g.vweight[v] > max_cluster_weight) continue;
        const bool tie_better =
            w == best_w && best != own &&
            (cluster_weight[lbl] < cluster_weight[best] ||
             (cluster_weight[lbl] == cluster_weight[best] && lbl < best));
        if (w > best_w || tie_better) {
          best_w = w;
          best = lbl;
        }
      }
      if (best != own) {
        cluster_weight[own] -= g.vweight[v];
        cluster_weight[best] += g.vweight[v];
        label[v] = best;
        ++moves;
      }
    }
    if (moves < n / 100) break;
  }
  return label;
}

// Contracts a clustering (arbitrary labels) into a coarser weighted graph.
// Coarse ids follow the first appearance of each label in vertex order, and
// every coarse row lists its neighbours in ascending id order.
CoarseLevel Contract(const WeightedGraph& g,
                     const std::vector<uint32_t>& label) {
  CoarseLevel level;
  const size_t n = g.n();
  level.fine_to_coarse.resize(n);
  std::vector<uint32_t> dense(n, UINT32_MAX);
  uint32_t next = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (dense[label[v]] == UINT32_MAX) dense[label[v]] = next++;
    level.fine_to_coarse[v] = dense[label[v]];
  }
  const std::vector<uint32_t>& f2c = level.fine_to_coarse;
  WeightedGraph& cg = level.graph;
  cg.vweight.assign(next, 0);
  for (uint32_t v = 0; v < n; ++v) cg.vweight[f2c[v]] += g.vweight[v];

  // Counting sort: members[first[cv] .. first[cv+1]) are the fine vertices
  // of coarse vertex cv, ascending.
  std::vector<uint32_t> first(next + 1, 0);
  for (uint32_t v = 0; v < n; ++v) ++first[f2c[v] + 1];
  for (uint32_t cv = 0; cv < next; ++cv) first[cv + 1] += first[cv];
  std::vector<uint32_t> members(n);
  {
    std::vector<uint32_t> fill(first.begin(), first.end() - 1);
    for (uint32_t v = 0; v < n; ++v) members[fill[f2c[v]]++] = v;
  }

  // Each coarse row: sum parallel edges in a dense accumulator, drop the
  // internal ones, then emit the touched ids sorted.
  cg.off.assign(next + 1, 0);
  std::vector<uint64_t> acc(next, 0);
  std::vector<uint32_t> touched;
  for (uint32_t cv = 0; cv < next; ++cv) {
    touched.clear();
    for (uint32_t i = first[cv]; i < first[cv + 1]; ++i) {
      const uint32_t v = members[i];
      for (uint64_t e = g.off[v]; e < g.off[v + 1]; ++e) {
        const uint32_t cu = f2c[g.nbr[e]];
        if (cu == cv) continue;  // internal edge disappears
        if (acc[cu] == 0) touched.push_back(cu);
        acc[cu] += g.w[e];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (uint32_t cu : touched) {
      cg.nbr.push_back(cu);
      cg.w.push_back(acc[cu]);
      acc[cu] = 0;
    }
    cg.off[cv + 1] = cg.nbr.size();
  }
  return level;
}

uint64_t CutWeight(const WeightedGraph& g,
                   const std::vector<PartitionId>& part) {
  uint64_t cut = 0;
  for (uint32_t v = 0; v < g.n(); ++v) {
    for (uint64_t e = g.off[v]; e < g.off[v + 1]; ++e) {
      const uint32_t u = g.nbr[e];
      if (u > v && part[u] != part[v]) cut += g.w[e];
    }
  }
  return cut;
}

// Greedy graph growing: BFS-grow each partition up to the weight budget.
std::vector<PartitionId> GrowInitial(const WeightedGraph& g, PartitionId k,
                                     Rng* rng) {
  const size_t n = g.n();
  std::vector<PartitionId> part(n, kInvalidPartition);
  const uint64_t total = g.total_vweight();
  const uint64_t budget = (total + k - 1) / k;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  size_t cursor = 0;
  std::vector<uint32_t> queue;  // FIFO: pops advance `head`
  for (PartitionId p = 0; p + 1 < k; ++p) {
    uint64_t weight = 0;
    queue.clear();
    size_t head = 0;
    while (weight < budget) {
      if (head == queue.size()) {
        while (cursor < n && part[order[cursor]] != kInvalidPartition) {
          ++cursor;
        }
        if (cursor >= n) break;
        queue.push_back(order[cursor]);
      }
      uint32_t v = queue[head++];
      if (part[v] != kInvalidPartition) continue;
      part[v] = p;
      weight += g.vweight[v];
      for (uint64_t e = g.off[v]; e < g.off[v + 1]; ++e) {
        if (part[g.nbr[e]] == kInvalidPartition) queue.push_back(g.nbr[e]);
      }
    }
  }
  for (uint32_t v = 0; v < n; ++v) {
    if (part[v] == kInvalidPartition) part[v] = k - 1;
  }
  return part;
}

// One size-constrained label-propagation refinement pass (the social-graph
// refiner of KaHIP/Spinner): a vertex moves to the partition maximizing
// normalized connectivity plus a load penalty, under a hard weight cap.
// Strict positive-gain FM converges instantly to poor local optima on
// power-law graphs; the soft load term lets the refiner traverse plateaus.
// Returns the number of moves made.
size_t RefinePass(const WeightedGraph& g, PartitionId k, double imbalance,
                  std::vector<PartitionId>* part,
                  std::vector<uint64_t>* pweight, Rng* rng) {
  const size_t n = g.n();
  const double mean =
      static_cast<double>(g.total_vweight()) / static_cast<double>(k);
  const uint64_t max_weight = static_cast<uint64_t>(imbalance * mean) + 1;
  const double capacity = imbalance * mean;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  size_t moves = 0;
  std::vector<uint64_t> conn(k, 0);
  // Partitions in first-seen order (score ties go to the first seen). The
  // slot past the last one absorbs the unconditional store of a repeat.
  std::vector<PartitionId> touched(static_cast<size_t>(k) + 1);
  for (uint32_t v : order) {
    const PartitionId own = (*part)[v];
    size_t nt = 0;
    // Integer weighted degree: exact, and equal to the double sum of the
    // weights while below 2^53.
    uint64_t total = 0;
    for (uint64_t e = g.off[v]; e < g.off[v + 1]; ++e) {
      const PartitionId pu = (*part)[g.nbr[e]];
      touched[nt] = pu;
      nt += conn[pu] == 0;
      conn[pu] += g.w[e];
      total += g.w[e];
    }
    const bool boundary = nt > 1 || (nt == 1 && touched[0] != own);
    if (boundary) {
      const double total_w = static_cast<double>(total);
      auto score = [&](PartitionId p) {
        double locality = static_cast<double>(conn[p]) / total_w;
        double penalty =
            1.0 - static_cast<double>((*pweight)[p]) / capacity;
        if (penalty < 0) penalty = 0;
        return locality + penalty;
      };
      PartitionId best = own;
      double best_score = score(own);
      for (size_t i = 0; i < nt; ++i) {
        const PartitionId p = touched[i];
        if (p == own) continue;
        if ((*pweight)[p] + g.vweight[v] > max_weight) continue;
        double s = score(p);
        if (s > best_score) {
          best_score = s;
          best = p;
        }
      }
      if (best != own) {
        (*part)[v] = best;
        (*pweight)[own] -= g.vweight[v];
        (*pweight)[best] += g.vweight[v];
        ++moves;
      }
    }
    for (size_t i = 0; i < nt; ++i) conn[touched[i]] = 0;
  }
  return moves;
}

// Forces the balance constraint: moves vertices (accepting cut damage if
// unavoidable) out of overweight partitions into the lightest ones,
// preferring moves that keep the most neighbour connectivity.
void RebalancePass(const WeightedGraph& g, PartitionId k, double imbalance,
                   std::vector<PartitionId>* part,
                   std::vector<uint64_t>* pweight, Rng* rng) {
  const double mean =
      static_cast<double>(g.total_vweight()) / static_cast<double>(k);
  const uint64_t max_weight = static_cast<uint64_t>(imbalance * mean) + 1;
  const size_t n = g.n();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint64_t> conn(k, 0);
  std::vector<PartitionId> touched;
  for (int round = 0; round < 6; ++round) {
    bool any_over = false;
    for (PartitionId p = 0; p < k; ++p) {
      if ((*pweight)[p] > max_weight) any_over = true;
    }
    if (!any_over) return;
    rng->Shuffle(&order);
    for (uint32_t v : order) {
      PartitionId own = (*part)[v];
      if ((*pweight)[own] <= max_weight) continue;
      touched.clear();
      for (uint64_t e = g.off[v]; e < g.off[v + 1]; ++e) {
        PartitionId pu = (*part)[g.nbr[e]];
        if (conn[pu] == 0) touched.push_back(pu);
        conn[pu] += g.w[e];
      }
      // Target: lightest partition that can take v; among the near-lightest
      // prefer connectivity.
      PartitionId best = kInvalidPartition;
      for (PartitionId p = 0; p < k; ++p) {
        if (p == own) continue;
        if ((*pweight)[p] + g.vweight[v] > max_weight) continue;
        if (best == kInvalidPartition || conn[p] > conn[best] ||
            (conn[p] == conn[best] && (*pweight)[p] < (*pweight)[best])) {
          best = p;
        }
      }
      if (best != kInvalidPartition) {
        (*part)[v] = best;
        (*pweight)[own] -= g.vweight[v];
        (*pweight)[best] += g.vweight[v];
      }
      for (PartitionId p : touched) conn[p] = 0;
    }
  }
}

void Refine(const WeightedGraph& g, PartitionId k, int passes,
            double imbalance, std::vector<PartitionId>* part, Rng* rng) {
  std::vector<uint64_t> pweight(k, 0);
  for (uint32_t v = 0; v < g.n(); ++v) {
    pweight[(*part)[v]] += g.vweight[v];
  }
  RebalancePass(g, k, imbalance, part, &pweight, rng);
  uint64_t total_moves = 0;
  uint64_t total_passes = 0;
  uint64_t scanned = 0;
  for (int pass = 0; pass < passes; ++pass) {
    size_t moves = RefinePass(g, k, imbalance, part, &pweight, rng);
    scanned += g.nbr.size();  // a pass reads every adjacency entry once
    RebalancePass(g, k, imbalance, part, &pweight, rng);
    total_moves += moves;
    ++total_passes;
    if (moves == 0) break;
  }
  obs::Count("partition/vertex/multilevel/refine_moves", total_moves, "moves");
  obs::Count("partition/vertex/multilevel/refine_passes", total_passes,
             "passes");
  obs::Count("partition/vertex/multilevel/refine_scanned", scanned,
             "entries");
}

// Runs one full multilevel cycle. If `current` is non-null it is used as
// the partition to preserve (restricted coarsening; V-cycle).
std::vector<PartitionId> RunCycle(const WeightedGraph& base, PartitionId k,
                                  const MultilevelParams& params, Rng* rng,
                                  const std::vector<PartitionId>* current) {
  const size_t stop_at = std::max<size_t>(params.coarsen_target, 16UL * k);

  std::vector<CoarseLevel> levels;
  const WeightedGraph* top = &base;
  std::vector<PartitionId> projected_current;
  if (current) projected_current = *current;

  while (top->n() > stop_at) {
    // Cluster cap: small enough that the balance constraint stays feasible
    // at the coarsest level, large enough to coarsen quickly.
    const uint64_t cap = std::max<uint64_t>(
        1, top->total_vweight() / (static_cast<uint64_t>(k) * 8));
    auto label =
        LpCluster(*top, rng, cap, current ? &projected_current : nullptr);
    CoarseLevel level = Contract(*top, label);
    if (level.graph.n() >= top->n() * 95 / 100) break;  // stalled
    if (current) {
      std::vector<PartitionId> coarse_part(level.graph.n());
      for (uint32_t v = 0; v < level.fine_to_coarse.size(); ++v) {
        coarse_part[level.fine_to_coarse[v]] = projected_current[v];
      }
      projected_current = std::move(coarse_part);
    }
    levels.push_back(std::move(level));
    top = &levels.back().graph;
  }
  obs::Count("partition/vertex/multilevel/coarsen_levels", levels.size(),
             "levels");

  // Initial partition of the coarsest graph. The coarsest graph is tiny,
  // so refinement effort there is nearly free — spend 4x the passes.
  std::vector<PartitionId> part;
  if (current) {
    part = projected_current;
    Refine(*top, k, 4 * params.refine_passes, params.imbalance, &part, rng);
  } else {
    uint64_t best_cut = UINT64_MAX;
    for (int attempt = 0; attempt < params.initial_tries; ++attempt) {
      std::vector<PartitionId> cand = GrowInitial(*top, k, rng);
      Refine(*top, k, 4 * params.refine_passes, params.imbalance, &cand, rng);
      uint64_t cut = CutWeight(*top, cand);
      if (cut < best_cut) {
        best_cut = cut;
        part = std::move(cand);
      }
    }
  }

  // Uncoarsen with refinement at every level.
  for (size_t li = levels.size(); li-- > 0;) {
    const auto& level = levels[li];
    const WeightedGraph& fine =
        (li == 0) ? base : levels[li - 1].graph;
    std::vector<PartitionId> fine_part(fine.n());
    for (uint32_t v = 0; v < fine.n(); ++v) {
      fine_part[v] = part[level.fine_to_coarse[v]];
    }
    part = std::move(fine_part);
    Refine(fine, k, params.refine_passes, params.imbalance, &part, rng);
  }
  return part;
}

}  // namespace

Result<VertexPartitioning> MultilevelPartition(const Graph& graph,
                                               PartitionId k, uint64_t seed,
                                               const MultilevelParams& params) {
  if (k == 0 || k > kMaxPartitions) {
    return Status::InvalidArgument("multilevel: invalid k");
  }
  if (graph.num_vertices() == 0) {
    return Status::InvalidArgument("multilevel: empty graph");
  }
  Rng rng(seed);
  WeightedGraph base = FromGraph(graph);
  obs::Count("partition/vertex/multilevel/vertices_assigned",
             graph.num_vertices(), "vertices");
  obs::Count("partition/vertex/multilevel/v_cycles",
             static_cast<uint64_t>(params.v_cycles), "cycles");

  std::vector<PartitionId> part = RunCycle(base, k, params, &rng, nullptr);
  uint64_t cut = params.v_cycles > 1 ? CutWeight(base, part) : 0;
  for (int cycle = 1; cycle < params.v_cycles; ++cycle) {
    std::vector<PartitionId> next = RunCycle(base, k, params, &rng, &part);
    const uint64_t next_cut = CutWeight(base, next);
    if (next_cut <= cut) {
      part = std::move(next);
      cut = next_cut;
    }
  }

  VertexPartitioning result;
  result.k = k;
  result.assignment = std::move(part);
  return result;
}

}  // namespace gnnpart
