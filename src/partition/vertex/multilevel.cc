#include "partition/vertex/multilevel.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <vector>

#include "check/check.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

// One level's weighted graph in CSR form: the neighbours of v are
// nbr[off[v] .. off[v+1]) with edge weights w at the same positions; each
// undirected edge is stored on both endpoints. Level 0 views the input
// Graph's arrays and leaves `vw` and `w` empty: every input vertex and edge
// weighs 1.
struct WeightedGraph {
  std::span<const uint64_t> off;
  std::span<const uint32_t> nbr;
  std::span<const uint64_t> vw;
  std::span<const uint64_t> w;

  size_t n() const { return off.size() - 1; }
  uint64_t vweight(uint32_t v) const { return vw.empty() ? 1 : vw[v]; }
  uint64_t weight(uint64_t e) const { return w.empty() ? 1 : w[e]; }
  uint64_t total_vweight() const {
    return vw.empty() ? n()
                      : std::accumulate(vw.begin(), vw.end(), uint64_t{0});
  }
};

// A coarse level: the arrays its WeightedGraph views.
struct CoarseLevel {
  std::vector<uint64_t> vweight;
  std::vector<uint64_t> off;
  std::vector<uint32_t> nbr;
  std::vector<uint64_t> w;
  // Maps fine vertex -> coarse vertex of the *next* (coarser) level.
  std::vector<uint32_t> fine_to_coarse;

  WeightedGraph graph() const { return {off, nbr, vweight, w}; }
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
  std::vector<uint64_t> cluster_weight(n);
  for (uint32_t v = 0; v < n; ++v) cluster_weight[v] = g.vweight(v);
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
        conn[lbl] += g.weight(e);
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
        if (cluster_weight[lbl] + g.vweight(v) > max_cluster_weight) continue;
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
        cluster_weight[own] -= g.vweight(v);
        cluster_weight[best] += g.vweight(v);
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
  level.vweight.assign(next, 0);
  for (uint32_t v = 0; v < n; ++v) level.vweight[f2c[v]] += g.vweight(v);

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
  level.off.assign(next + 1, 0);
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
        acc[cu] += g.weight(e);
      }
    }
    std::sort(touched.begin(), touched.end());
    for (uint32_t cu : touched) {
      level.nbr.push_back(cu);
      level.w.push_back(acc[cu]);
      acc[cu] = 0;
    }
    level.off[cv + 1] = level.nbr.size();
  }
  return level;
}

uint64_t CutWeight(const WeightedGraph& g,
                   const std::vector<PartitionId>& part) {
  uint64_t cut = 0;
  for (uint32_t v = 0; v < g.n(); ++v) {
    for (uint64_t e = g.off[v]; e < g.off[v + 1]; ++e) {
      const uint32_t u = g.nbr[e];
      if (u > v && part[u] != part[v]) cut += g.weight(e);
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
      weight += g.vweight(v);
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

// Refinement state of one Refine call. rows[v*k + p] is v's edge weight
// into partition p and degree[v] its weighted degree; both are built once
// per call and kept current by Move, so evaluating a vertex reads its k-wide
// row instead of its neighbourhood. Every value fits in 32 bits:
// MultilevelPartition rejects inputs with 2^32 or more adjacency entries,
// and a coarse edge weight counts distinct input entries.
struct Refiner {
  Refiner(const WeightedGraph& graph, PartitionId parts, double imbalance,
          std::vector<PartitionId>* assignment)
      : g(graph),
        k(parts),
        part(*assignment),
        capacity(imbalance * (static_cast<double>(g.total_vweight()) /
                              static_cast<double>(k))),
        max_weight(static_cast<uint64_t>(capacity) + 1),
        pweight(k, 0),
        rows(CountRows()),
        degree(g.n()),
        scanned(g.nbr.size()) {
    for (uint32_t v = 0; v < g.n(); ++v) {
      pweight[part[v]] += g.vweight(v);
      degree[v] = std::accumulate(row(v), row(v) + k, uint32_t{0});
    }
  }

  uint32_t* row(uint32_t v) { return rows.data() + size_t{v} * k; }

  std::vector<uint32_t> CountRows() const {
    std::vector<uint32_t> counted(g.n() * size_t{k}, 0);
    for (uint32_t v = 0; v < g.n(); ++v) {
      for (uint64_t e = g.off[v]; e < g.off[v + 1]; ++e) {
        counted[size_t{v} * k + part[g.nbr[e]]] +=
            static_cast<uint32_t>(g.weight(e));
      }
    }
    return counted;
  }

  // Moves v to partition `to`, shifting its edge weight from its old
  // partition to `to` in every neighbour's row.
  void Move(uint32_t v, PartitionId to) {
    const PartitionId from = part[v];
    part[v] = to;
    pweight[from] -= g.vweight(v);
    pweight[to] += g.vweight(v);
    for (uint64_t e = g.off[v]; e < g.off[v + 1]; ++e) {
      uint32_t* r = row(g.nbr[e]);
      const auto w = static_cast<uint32_t>(g.weight(e));
      r[from] -= w;
      r[to] += w;
    }
    scanned += g.off[v + 1] - g.off[v];
  }

  // The partition in `ties` (a bit per partition) that holds v's first
  // neighbour among them.
  PartitionId FirstSeen(uint32_t v, uint64_t ties) {
    for (uint64_t e = g.off[v];; ++e) {
      const PartitionId p = part[g.nbr[e]];
      if ((ties >> p) & 1) {
        scanned += e - g.off[v] + 1;
        return p;
      }
    }
  }

  size_t RefinePass(Rng* rng);
  void RebalancePass(Rng* rng);

  const WeightedGraph& g;
  const PartitionId k;
  std::vector<PartitionId>& part;
  const double capacity;
  const uint64_t max_weight;
  std::vector<uint64_t> pweight;
  std::vector<uint32_t> rows;
  std::vector<uint32_t> degree;
  // Adjacency entries read: row builds, mover updates and tie scans.
  uint64_t scanned;
};

// One size-constrained label-propagation refinement pass (the social-graph
// refiner of KaHIP/Spinner): a vertex moves to the partition maximizing
// normalized connectivity plus a load penalty, under a hard weight cap.
// Strict positive-gain FM converges instantly to poor local optima on
// power-law graphs; the soft load term lets the refiner traverse plateaus.
// Score ties go to the partition of v's first neighbour among the tied
// ones. Returns the number of moves made.
size_t Refiner::RefinePass(Rng* rng) {
  const size_t n = g.n();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  size_t moves = 0;
  for (uint32_t v : order) {
    const PartitionId own = part[v];
    const uint32_t* conn = row(v);
    if (conn[own] == degree[v]) continue;  // not a boundary vertex
    const double total_w = static_cast<double>(degree[v]);
    auto score = [&](PartitionId p) {
      double locality = static_cast<double>(conn[p]) / total_w;
      double penalty = 1.0 - static_cast<double>(pweight[p]) / capacity;
      if (penalty < 0) penalty = 0;
      return locality + penalty;
    };
    // Candidates: partitions v has an edge into and that can take v, as a
    // bit per partition (k <= 64), built without a branch per partition.
    const uint64_t vw = g.vweight(v);
    uint64_t candidates = 0;
    for (PartitionId p = 0; p < k; ++p) {
      candidates |=
          uint64_t((conn[p] != 0) & (pweight[p] + vw <= max_weight)) << p;
    }
    candidates &= ~(uint64_t{1} << own);
    PartitionId best = own;
    double best_score = score(own);
    uint64_t ties = 0;  // candidates scoring best_score once best != own
    for (; candidates != 0; candidates &= candidates - 1) {
      const auto p = static_cast<PartitionId>(std::countr_zero(candidates));
      const double s = score(p);
      if (s > best_score) {
        best_score = s;
        best = p;
        ties = uint64_t{1} << p;
      } else if (s == best_score && best != own) {
        ties |= uint64_t{1} << p;
      }
    }
    if (best == own) continue;
    if (std::popcount(ties) > 1) best = FirstSeen(v, ties);
    Move(v, best);
    ++moves;
  }
  return moves;
}

// Forces the balance constraint: moves vertices (accepting cut damage if
// unavoidable) out of overweight partitions into the lightest ones,
// preferring moves that keep the most neighbour connectivity.
void Refiner::RebalancePass(Rng* rng) {
  const size_t n = g.n();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int round = 0; round < 6; ++round) {
    bool any_over = false;
    for (PartitionId p = 0; p < k; ++p) {
      if (pweight[p] > max_weight) any_over = true;
    }
    if (!any_over) return;
    rng->Shuffle(&order);
    for (uint32_t v : order) {
      PartitionId own = part[v];
      if (pweight[own] <= max_weight) continue;
      const uint32_t* conn = row(v);
      // Target: lightest partition that can take v; among the near-lightest
      // prefer connectivity.
      PartitionId best = kInvalidPartition;
      for (PartitionId p = 0; p < k; ++p) {
        if (p == own) continue;
        if (pweight[p] + g.vweight(v) > max_weight) continue;
        if (best == kInvalidPartition || conn[p] > conn[best] ||
            (conn[p] == conn[best] && pweight[p] < pweight[best])) {
          best = p;
        }
      }
      if (best != kInvalidPartition) Move(v, best);
    }
  }
}

void Refine(const WeightedGraph& g, PartitionId k, int passes,
            double imbalance, std::vector<PartitionId>* part, Rng* rng) {
  Refiner refiner(g, k, imbalance, part);
  refiner.RebalancePass(rng);
  uint64_t total_moves = 0;
  uint64_t total_passes = 0;
  for (int pass = 0; pass < passes; ++pass) {
    size_t moves = refiner.RefinePass(rng);
    refiner.RebalancePass(rng);
    total_moves += moves;
    ++total_passes;
    if (moves == 0) break;
  }
  GNNPART_CHECK_PARANOID(refiner.CountRows() == refiner.rows,
                         "multilevel: a partition-connectivity row drifted "
                         "from the adjacency");
  obs::Count("partition/vertex/multilevel/refine_moves", total_moves, "moves");
  obs::Count("partition/vertex/multilevel/refine_passes", total_passes,
             "passes");
  obs::Count("partition/vertex/multilevel/refine_scanned", refiner.scanned,
             "entries");
}

// Runs one full multilevel cycle. If `current` is non-null it is used as
// the partition to preserve (restricted coarsening; V-cycle).
std::vector<PartitionId> RunCycle(const WeightedGraph& base, PartitionId k,
                                  const MultilevelParams& params, Rng* rng,
                                  const std::vector<PartitionId>* current) {
  const size_t stop_at = std::max<size_t>(params.coarsen_target, 16UL * k);

  std::vector<CoarseLevel> levels;
  WeightedGraph top = base;
  std::vector<PartitionId> projected_current;
  if (current) projected_current = *current;

  while (top.n() > stop_at) {
    // Cluster cap: small enough that the balance constraint stays feasible
    // at the coarsest level, large enough to coarsen quickly.
    const uint64_t cap = std::max<uint64_t>(
        1, top.total_vweight() / (static_cast<uint64_t>(k) * 8));
    auto label =
        LpCluster(top, rng, cap, current ? &projected_current : nullptr);
    CoarseLevel level = Contract(top, label);
    if (level.vweight.size() >= top.n() * 95 / 100) break;  // stalled
    if (current) {
      std::vector<PartitionId> coarse_part(level.vweight.size());
      for (uint32_t v = 0; v < level.fine_to_coarse.size(); ++v) {
        coarse_part[level.fine_to_coarse[v]] = projected_current[v];
      }
      projected_current = std::move(coarse_part);
    }
    levels.push_back(std::move(level));
    top = levels.back().graph();
  }
  obs::Count("partition/vertex/multilevel/coarsen_levels", levels.size(),
             "levels");

  // Initial partition of the coarsest graph. The coarsest graph is tiny,
  // so refinement effort there is nearly free — spend 4x the passes.
  std::vector<PartitionId> part;
  if (current) {
    part = projected_current;
    Refine(top, k, 4 * params.refine_passes, params.imbalance, &part, rng);
  } else {
    uint64_t best_cut = UINT64_MAX;
    for (int attempt = 0; attempt < params.initial_tries; ++attempt) {
      std::vector<PartitionId> cand = GrowInitial(top, k, rng);
      Refine(top, k, 4 * params.refine_passes, params.imbalance, &cand, rng);
      uint64_t cut = CutWeight(top, cand);
      if (cut < best_cut) {
        best_cut = cut;
        part = std::move(cand);
      }
    }
  }

  // Uncoarsen with refinement at every level.
  for (size_t li = levels.size(); li-- > 0;) {
    const auto& level = levels[li];
    const WeightedGraph fine = (li == 0) ? base : levels[li - 1].graph();
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
  // Every row entry and coarse weight then fits in 32 bits (Refiner).
  if (graph.neighbors().size() >= (uint64_t{1} << 32)) {
    return Status::InvalidArgument(
        "multilevel: 2^32 or more adjacency entries");
  }
  Rng rng(seed);
  const WeightedGraph base{graph.offsets(), graph.neighbors(), {}, {}};
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
