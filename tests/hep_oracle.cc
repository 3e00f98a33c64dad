// The HEP engine as it was before the low-low CSR rewrite, kept verbatim
// as the bit-exact oracle of tests/partition_hep_oracle_test.cc.
#include "hep_oracle.h"

#include <algorithm>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "partition/edge/hep.h"

namespace gnnpart {
namespace oracle {
namespace {

/// Adjacency entry carrying the canonical edge id.
struct IncidentEdge {
  VertexId neighbor;
  EdgeId edge;
};

/// CSR incidence structure over a subset of the canonical edges: for each
/// vertex, the (neighbor, edge id) pairs of all its incident subset edges,
/// in ascending edge-id order regardless of the listing order of `subset`.
class IncidenceList {
 public:
  IncidenceList(const Graph& graph, const std::vector<EdgeId>& subset) {
    const size_t n = graph.num_vertices();
    std::vector<EdgeId> sorted(subset);
    std::sort(sorted.begin(), sorted.end());
    const auto& edges = graph.edges();
    std::vector<uint64_t> degree(n + 1, 0);
    for (EdgeId e : sorted) {
      ++degree[edges[e].src];
      ++degree[edges[e].dst];
    }
    offsets_.assign(n + 1, 0);
    for (size_t v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + degree[v];
    entries_.resize(offsets_[n]);
    std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (EdgeId e : sorted) {
      entries_[cursor[edges[e].src]++] = {edges[e].dst, e};
      entries_[cursor[edges[e].dst]++] = {edges[e].src, e};
    }
  }

  std::span<const IncidentEdge> Incident(VertexId v) const {
    return {entries_.data() + offsets_[v], entries_.data() + offsets_[v + 1]};
  }

  size_t IncidentCount(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

 private:
  std::vector<uint64_t> offsets_;
  std::vector<IncidentEdge> entries_;
};

// Max-heap entry ordered so the vertex with the *fewest* external unassigned
// edges pops first.
struct Candidate {
  uint32_t external;  // unassigned incident edges leading outside the set
  VertexId vertex;
  bool operator<(const Candidate& other) const {
    return external > other.external;  // min-heap via operator<
  }
};

}  // namespace

Status HepPartitionStream(const Graph& graph, const std::vector<EdgeId>& stream,
                          PartitionId k, double tau, double alpha,
                          double lambda, Rng* rng,
                          std::vector<PartitionId>* assignment) {
  if (tau <= 0) return Status::InvalidArgument("HEP: tau must be > 0");
  const std::string name = HepPartitioner(tau).name();
  const size_t n = graph.num_vertices();
  // Degree threshold and balance cap scale with the *stream* size; for the
  // full stream this equals graph.num_edges(), reproducing the sequential
  // partitioner bit for bit.
  const size_t m = stream.size();
  const auto& edges = graph.edges();
  // Ascending edge-id order makes every order-sensitive step below a pure
  // function of the stream's contents (the shuffled shard stream arrives in
  // RNG order, which is fixed too, but the sort keeps the in-memory phase
  // identical to the sequential pass when the stream is the full edge list).
  std::vector<EdgeId> sorted(stream);
  std::sort(sorted.begin(), sorted.end());
  IncidenceList incidence(graph, sorted);

  // ---- Classify vertices. ----
  const double mean_inc = static_cast<double>(2 * m) / static_cast<double>(n);
  const double threshold = tau * mean_inc;
  std::vector<uint8_t> is_high(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (static_cast<double>(incidence.IncidentCount(v)) > threshold) {
      is_high[v] = 1;
    }
  }

  size_t low_edges = 0;
  for (EdgeId e : sorted) {
    if (!is_high[edges[e].src] && !is_high[edges[e].dst]) ++low_edges;
  }

  std::vector<uint64_t> load(k, 0);
  std::vector<uint64_t> replicas(n, 0);
  // Which expansion set a vertex joined (kInvalidPartition = none yet).
  std::vector<PartitionId> owner(n, kInvalidPartition);
  // Last partition whose boundary heap a vertex was pushed into (dedups
  // pushes; boundary membership itself is implied by heap entries).
  std::vector<PartitionId> boundary_of(n, kInvalidPartition);

  auto assign_edge = [&](EdgeId e, PartitionId p) {
    (*assignment)[e] = p;
    ++load[p];
    replicas[edges[e].src] |= 1ULL << p;
    replicas[edges[e].dst] |= 1ULL << p;
  };

  // Classic NE selection criterion |N(v) \ (C u S)|: vertices already in
  // p's core (owner) or queued in p's boundary (boundary_of) count as
  // internal.
  auto external_score = [&](VertexId v, PartitionId p) {
    uint32_t ext = 0;
    for (const IncidentEdge& ie : incidence.Incident(v)) {
      if ((*assignment)[ie.edge] != kInvalidPartition) continue;
      if (is_high[ie.neighbor]) continue;
      if (owner[ie.neighbor] != p && boundary_of[ie.neighbor] != p) ++ext;
    }
    return ext;
  };

  // ---- In-memory phase: grow k expansion sets over the low-degree part.
  size_t assigned_low = 0;
  VertexId scan_cursor = 0;  // round-robin start for fresh seeds
  for (PartitionId p = 0; p < k; ++p) {
    const size_t remaining = low_edges - assigned_low;
    const size_t parts_left = k - p;
    const uint64_t target = (remaining + parts_left - 1) / parts_left;
    if (target == 0) break;

    std::priority_queue<Candidate> heap;
    auto push_seed = [&]() -> bool {
      // Find an untaken low-degree vertex with at least one unassigned edge.
      for (size_t step = 0; step < n; ++step) {
        VertexId v = scan_cursor;
        scan_cursor = (scan_cursor + 1 == n) ? 0 : scan_cursor + 1;
        if (is_high[v] || owner[v] != kInvalidPartition) continue;
        bool has_unassigned = false;
        for (const IncidentEdge& ie : incidence.Incident(v)) {
          if ((*assignment)[ie.edge] == kInvalidPartition &&
              !is_high[ie.neighbor]) {
            has_unassigned = true;
            break;
          }
        }
        if (has_unassigned) {
          heap.push({external_score(v, p), v});
          return true;
        }
      }
      return false;
    };
    if (!push_seed()) break;

    while (load[p] < target) {
      if (heap.empty() && !push_seed()) break;
      Candidate cand = heap.top();
      heap.pop();
      VertexId v = cand.vertex;
      if (owner[v] != kInvalidPartition) continue;  // stale entry
      uint32_t current = external_score(v, p);
      if (current > cand.external && !heap.empty() &&
          heap.top().external < current) {
        // Score went stale; re-queue with the fresh score.
        heap.push({current, v});
        continue;
      }
      owner[v] = p;
      // Neighbourhood expansion proper: once v enters the core, every
      // unassigned low-low edge of v is claimed for p — the other endpoint
      // becomes (or already is) a boundary/core member of p. Boundary
      // vertices of other partitions get replicated, which is exactly NE's
      // replication mechanism.
      for (const IncidentEdge& ie : incidence.Incident(v)) {
        if ((*assignment)[ie.edge] != kInvalidPartition) continue;
        if (is_high[ie.neighbor]) continue;
        PartitionId nbr_owner = owner[ie.neighbor];
        if (nbr_owner != kInvalidPartition && nbr_owner != p) {
          // Other endpoint belongs to another core; leave the edge to the
          // streaming phase, which places it against replica state.
          continue;
        }
        assign_edge(ie.edge, p);
        ++assigned_low;
        if (nbr_owner == kInvalidPartition && boundary_of[ie.neighbor] != p) {
          boundary_of[ie.neighbor] = p;
          heap.push({external_score(ie.neighbor, p), ie.neighbor});
        }
      }
      if (load[p] >= target) break;
    }
  }

  // ---- Streaming phase: HDRF over everything still unassigned. ----
  std::vector<EdgeId> rest;
  rest.reserve(m - assigned_low);
  for (EdgeId e : sorted) {
    if ((*assignment)[e] == kInvalidPartition) rest.push_back(e);
  }
  rng->Shuffle(&rest);

  const size_t streamed_edges = rest.size();
  uint64_t score_evals = 0;  // accumulated locally, published once below
  std::vector<uint32_t> partial_degree(n, 0);
  const uint64_t cap = static_cast<uint64_t>(
      alpha * static_cast<double>(m) / static_cast<double>(k)) + 1;
  uint64_t max_load = *std::max_element(load.begin(), load.end());
  for (EdgeId e : rest) {
    VertexId u = edges[e].src;
    VertexId v = edges[e].dst;
    ++partial_degree[u];
    ++partial_degree[v];
    double du = partial_degree[u];
    double dv = partial_degree[v];
    double theta_u = du / (du + dv);
    uint64_t min_load = *std::min_element(load.begin(), load.end());
    double denom = 1.0 + static_cast<double>(max_load - min_load);
    PartitionId best = kInvalidPartition;
    double best_score = -1.0;
    for (PartitionId p = 0; p < k; ++p) {
      if (load[p] >= cap) continue;
      ++score_evals;
      double g = 0;
      if (replicas[u] & (1ULL << p)) g += 1.0 + (1.0 - theta_u);
      if (replicas[v] & (1ULL << p)) g += 1.0 + theta_u;
      double bal = lambda * static_cast<double>(max_load - load[p]) / denom;
      double score = g + bal;
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    if (best == kInvalidPartition) {
      // All partitions at cap (can only happen with tiny alpha): least load.
      best = static_cast<PartitionId>(
          std::min_element(load.begin(), load.end()) - load.begin());
    }
    assign_edge(e, best);
    max_load = std::max(max_load, load[best]);
  }
  obs::Count("partition/edge/" + name + "/edges_assigned", m, "edges");
  obs::Count("partition/edge/" + name + "/in_memory_edges", assigned_low,
             "edges");
  obs::Count("partition/edge/" + name + "/streamed_edges", streamed_edges,
             "edges");
  obs::Count("partition/edge/" + name + "/score_evals", score_evals,
             "evals");
  return Status::Ok();
}

}  // namespace oracle
}  // namespace gnnpart
