#include "partition/edge/hep.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <queue>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "partition/edge/replica_classes.h"

namespace gnnpart {
namespace {

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

Result<EdgePartitioning> HepPartitioner::Partition(const Graph& graph,
                                                   PartitionId k,
                                                   uint64_t seed) const {
  GNNPART_RETURN_NOT_OK(CheckArgs(graph, k));
  const size_t m = graph.num_edges();

  EdgePartitioning result;
  result.k = k;
  result.assignment.assign(m, kInvalidPartition);

  // HEP consumes the edge list in its on-disk (canonical) order; only the
  // streaming-phase leftovers are shuffled, from the same RNG stream.
  std::vector<EdgeId> stream(m);
  std::iota(stream.begin(), stream.end(), 0);
  Rng rng(seed);

  GNNPART_RETURN_NOT_OK(
      PartitionStream(graph, stream, k, &rng, &result.assignment));
  return result;
}

Status HepPartitioner::PartitionStream(
    const Graph& graph, const std::vector<EdgeId>& stream, PartitionId k,
    Rng* rng, std::vector<PartitionId>* assignment) const {
  if (!std::isfinite(tau_) || tau_ <= 0) {
    return Status::InvalidArgument("HEP: tau must be finite and > 0");
  }
  if (!std::isfinite(alpha_) || alpha_ <= 0) {
    return Status::InvalidArgument("HEP: alpha must be finite and > 0");
  }
  if (!std::isfinite(lambda_) || lambda_ <= 0) {
    return Status::InvalidArgument("HEP: lambda must be finite and > 0");
  }
  const size_t n = graph.num_vertices();
  // Degree threshold and balance cap scale with the *stream* size; for the
  // full stream this equals graph.num_edges(), reproducing the sequential
  // partitioner bit for bit.
  const size_t m = stream.size();
  const auto& edges = graph.edges();
  // Ascending edge-id order makes every order-sensitive step below a pure
  // function of the stream's contents, so a shuffled shard stream and the
  // full edge list take the same in-memory path. The full stream arrives
  // ascending and is used as is.
  const bool ascending = std::is_sorted(stream.begin(), stream.end());
  std::vector<EdgeId> sorted_copy;
  if (!ascending) {
    sorted_copy = stream;
    std::sort(sorted_copy.begin(), sorted_copy.end());
  }
  const std::vector<EdgeId>& sorted = ascending ? stream : sorted_copy;
  if constexpr (check::ParanoidEnabled()) {
    for (EdgeId e : sorted) {
      GNNPART_CHECK_PARANOID((*assignment)[e] == kInvalidPartition,
                             "HEP: stream edge " + std::to_string(e) +
                                 " arrived already assigned");
    }
  }

  // ---- Classify vertices by their incident-edge count in the stream. ----
  std::vector<uint64_t> offsets(n + 1, 0);
  for (EdgeId e : sorted) {
    ++offsets[edges[e].src + 1];
    ++offsets[edges[e].dst + 1];
  }
  const double mean_inc = static_cast<double>(2 * m) / static_cast<double>(n);
  const double threshold = tau_ * mean_inc;
  std::vector<uint8_t> is_high(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    is_high[v] = static_cast<double>(offsets[v + 1]) > threshold;
  }

  // ---- Low-low CSR: for each vertex, its low-low stream edges as
  // (neighbour, edge) in two parallel arrays, in ascending edge order. ----
  std::fill(offsets.begin(), offsets.end(), 0);
  size_t low_edges = 0;
  for (EdgeId e : sorted) {
    if (is_high[edges[e].src] || is_high[edges[e].dst]) continue;
    ++offsets[edges[e].src + 1];
    ++offsets[edges[e].dst + 1];
    ++low_edges;
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<VertexId> nbr(2 * low_edges);
  std::vector<EdgeId> nbr_edge(2 * low_edges);
  {
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (EdgeId e : sorted) {
      const VertexId u = edges[e].src;
      const VertexId v = edges[e].dst;
      if (is_high[u] || is_high[v]) continue;
      nbr[cursor[u]] = v;
      nbr_edge[cursor[u]++] = e;
      nbr[cursor[v]] = u;
      nbr_edge[cursor[v]++] = e;
    }
  }

  std::vector<uint64_t> load(k, 0);
  std::vector<uint64_t> replicas(n, 0);
  // NE state per vertex, side by side so that scoring reads one word per
  // neighbour. owner: the expansion set the vertex joined (kInvalidPartition
  // = none yet). boundary: the last partition whose boundary heap it was
  // pushed into (dedups pushes; boundary membership itself is implied by
  // heap entries).
  struct NeState {
    PartitionId owner = kInvalidPartition;
    PartitionId boundary = kInvalidPartition;
  };
  std::vector<NeState> ne(n);

  auto assign_edge = [&](EdgeId e, PartitionId p) {
    (*assignment)[e] = p;
    ++load[p];
    replicas[edges[e].src] |= 1ULL << p;
    replicas[edges[e].dst] |= 1ULL << p;
  };

  // The in-memory phase never reads the assignment. It rests on one
  // invariant: while v is unowned, its low-low edge (v, x) is unassigned
  // iff x is unowned. Stream edges start unassigned (checked above), and
  // only a vertex joining a core assigns low-low edges: it claims every one
  // whose other endpoint is unowned. (Canonical graphs have no self-loops,
  // so x != v.) The paranoid check after the phase re-verifies it.
  //
  // Classic NE selection criterion |N(v) \ (C u S)|: v's unassigned low-low
  // edges whose other endpoint is neither in p's core nor queued in p's
  // boundary. Within one expansion set it only falls (owner and boundary
  // are only ever set to p), so a popped score is never stale-low and the
  // heap needs no rescoring.
  auto external_score = [&](VertexId v, PartitionId p) {
    uint32_t ext = 0;
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId x = nbr[i];
      ext += ne[x].owner == kInvalidPartition && ne[x].boundary != p;
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
      // Find an untaken vertex with at least one unassigned low-low edge
      // (high-degree vertices have none).
      for (size_t step = 0; step < n; ++step) {
        VertexId v = scan_cursor;
        scan_cursor = (scan_cursor + 1 == n) ? 0 : scan_cursor + 1;
        if (ne[v].owner != kInvalidPartition) continue;
        for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
          if (ne[nbr[i]].owner == kInvalidPartition) {
            heap.push({external_score(v, p), v});
            return true;
          }
        }
      }
      return false;
    };
    if (!push_seed()) break;

    while (load[p] < target) {
      if (heap.empty() && !push_seed()) break;
      const VertexId v = heap.top().vertex;
      heap.pop();
      if (ne[v].owner != kInvalidPartition) continue;  // stale entry
      ne[v].owner = p;
      // Neighbourhood expansion proper: once v enters the core, every
      // unassigned low-low edge of v is claimed for p — the other endpoint
      // becomes (or already is) a boundary member of p. Boundary vertices
      // of other partitions get replicated, which is exactly NE's
      // replication mechanism. Edges to owned vertices were claimed when
      // those joined their core.
      for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        const VertexId x = nbr[i];
        if (ne[x].owner != kInvalidPartition) continue;
        assign_edge(nbr_edge[i], p);
        ++assigned_low;
        if (ne[x].boundary != p) {
          ne[x].boundary = p;
          heap.push({external_score(x, p), x});
        }
      }
      if (load[p] >= target) break;
    }
  }
  if constexpr (check::ParanoidEnabled()) {
    for (VertexId v = 0; v < n; ++v) {
      for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        const bool claimed = ne[v].owner != kInvalidPartition ||
                             ne[nbr[i]].owner != kInvalidPartition;
        GNNPART_CHECK_PARANOID(
            claimed == ((*assignment)[nbr_edge[i]] != kInvalidPartition),
            "HEP: low-low edge " + std::to_string(nbr_edge[i]) +
                " breaks the owner invariant");
      }
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
      alpha_ * static_cast<double>(m) / static_cast<double>(k)) + 1;
  uint64_t max_load = *std::max_element(load.begin(), load.end());
  // LoadKey(load[p], p), or kNoKey once p is capped: capped partitions are
  // never scored, so they belong to no replica class (replica_classes.h).
  std::vector<uint64_t> key(k);
  PartitionId uncapped = 0;
  for (PartitionId p = 0; p < k; ++p) {
    key[p] = load[p] >= cap ? kNoKey : LoadKey(load[p], p);
    uncapped += load[p] < cap;
  }
  for (size_t i = 0; i < rest.size(); ++i) {
    const EdgeId e = rest[i];
    const Edge edge = StreamEdge(rest, i, edges.data(), assignment->data(),
                                 replicas.data(), partial_degree.data());
    VertexId u = edge.src;
    VertexId v = edge.dst;
    ++partial_degree[u];
    ++partial_degree[v];
    double du = partial_degree[u];
    double dv = partial_degree[v];
    double theta_u = du / (du + dv);
    score_evals += uncapped;
    PartitionId best = kInvalidPartition;
    if (uncapped > 0) {
      const std::array<uint64_t, 4> min_key =
          MinKeyPerClass(key.data(), k, replicas[u], replicas[v]);
      // Every capped load is >= cap > every uncapped load, so the least
      // uncapped load is the least load.
      const uint64_t min_load =
          *std::min_element(min_key.begin(), min_key.end()) >> 6;
      const double denom = 1.0 + static_cast<double>(max_load - min_load);
      auto replication = [&](int c) {
        double g = 0;
        if (c & kUOnly) g += 1.0 + (1.0 - theta_u);
        if (c & kVOnly) g += 1.0 + theta_u;
        return g;
      };
      auto balance = [&](uint64_t l) {
        return lambda_ * static_cast<double>(max_load - l) / denom;
      };
      double score[4] = {};
      double best_score = -1.0;
      for (int c = 0; c < 4; ++c) {
        if (min_key[c] == kNoKey) continue;
        score[c] = replication(c) + balance(min_key[c] >> 6);
        const PartitionId p = static_cast<PartitionId>(min_key[c] & 63);
        if (score[c] > best_score || (score[c] == best_score && p < best)) {
          best_score = score[c];
          best = p;
        }
      }
      // HEP breaks score ties on the index alone, so a member of a tying
      // class with a higher load and a lower index than its class winner
      // could tie it and win. That needs g + bal(load + 1) to round to the
      // winner's score; then score this edge the full way.
      bool certain = true;
      for (int c = 0; c < 4; ++c) {
        if (min_key[c] == kNoKey || score[c] != best_score) continue;
        const uint64_t l = min_key[c] >> 6;
        certain &=
            l == max_load || replication(c) + balance(l + 1) < best_score;
      }
      if (!certain) {
        best_score = -1.0;
        for (PartitionId p = 0; p < k; ++p) {
          if (load[p] >= cap) continue;
          const int c = static_cast<int>(((replicas[u] >> p) & 1) |
                                         ((replicas[v] >> p) & 1) << 1);
          const double s = replication(c) + balance(load[p]);
          if (s > best_score) {
            best_score = s;
            best = p;
          }
        }
      }
    } else {
      // All partitions at cap (can only happen with tiny alpha): least load.
      best = static_cast<PartitionId>(
          std::min_element(load.begin(), load.end()) - load.begin());
    }
    assign_edge(e, best);
    max_load = std::max(max_load, load[best]);
    if (key[best] != kNoKey) {
      key[best] = load[best] >= cap ? kNoKey : LoadKey(load[best], best);
      uncapped -= load[best] >= cap;
    }
  }
  obs::Count("partition/edge/" + name() + "/edges_assigned", m, "edges");
  obs::Count("partition/edge/" + name() + "/in_memory_edges", assigned_low,
             "edges");
  obs::Count("partition/edge/" + name() + "/streamed_edges", streamed_edges,
             "edges");
  obs::Count("partition/edge/" + name() + "/score_evals", score_evals,
             "evals");
  return Status::Ok();
}

}  // namespace gnnpart
