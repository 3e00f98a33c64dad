// NeighborSampler::SampleBatch as it stood before its two-pass rewrite:
// frontier chunks fanned out on the thread pool, a copied neighbourhood per
// partial Fisher-Yates, a serial chunk-order merge and a parallel locality
// count. Kept verbatim as the reference that SampleBatch is diff-tested
// against bit for bit (sampler_oracle_test).
#include "sampler_oracle.h"

#include <algorithm>
#include <utility>

#include "check/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace oracle {
namespace {

// Frontier vertices per parallel chunk. Coarse enough that the per-chunk
// sampling cost (fanout RNG draws + neighbour reads per vertex) dwarfs the
// dispatch overhead, fine enough that typical batch frontiers (hundreds to
// tens of thousands of vertices) split across a pool.
constexpr size_t kFrontierGrain = 256;

// Input-vertex locality counting grain.
constexpr size_t kInputGrain = 8192;

}  // namespace

NeighborSampler::NeighborSampler(const Graph& graph)
    : graph_(graph), visit_stamp_(graph.num_vertices(), 0) {}

MiniBatchProfile NeighborSampler::SampleBatch(
    std::span<const VertexId> seeds, const std::vector<size_t>& fanouts,
    const VertexPartitioning* parts, PartitionId owner, Rng* rng) const {
  MiniBatchProfile profile;
  profile.seeds = seeds.size();

  ++stamp_;
  if (stamp_ == 0) {  // wrapped: reset the scratch array
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    stamp_ = 1;
  }
  const uint32_t now = stamp_;

  std::vector<VertexId> frontier(seeds.begin(), seeds.end());
  std::vector<VertexId> input;
  for (VertexId v : frontier) {
    if (visit_stamp_[v] != now) {
      visit_stamp_[v] = now;
      input.push_back(v);
    }
  }
  profile.frontier_sizes.push_back(frontier.size());

  // Per layer: fan out over frontier chunks in parallel (each chunk samples
  // with its own deterministic RNG stream), then merge the per-chunk sample
  // lists serially in chunk order. Only the merge touches the visit stamps,
  // so first-visit order — and with it the whole batch — is identical for
  // every thread count.
  struct ChunkOut {
    std::vector<VertexId> sampled;
    size_t edges = 0;
    size_t remote_requests = 0;
    size_t empty_adjacency = 0;
  };
  std::vector<VertexId> next;
  size_t empty_adjacency = 0;  // accumulated locally, published once below
  size_t revisit_skips = 0;    // sampled endpoints already in the batch
  for (size_t fanout : fanouts) {
    const size_t chunks = NumChunks(frontier.size(), kFrontierGrain);
    const uint64_t layer_base = rng->Next();
    std::vector<ChunkOut> out(chunks);
    ParallelFor(
        frontier.size(), kFrontierGrain,
        [&](size_t begin, size_t end, size_t chunk) {
          Rng chunk_rng = ChunkRng(layer_base, chunk);
          ChunkOut& o = out[chunk];
          std::vector<VertexId> reservoir;
          for (size_t i = begin; i < end; ++i) {
            VertexId v = frontier[i];
            if (parts && parts->assignment[v] != owner) {
              ++o.remote_requests;
            }
            auto nbrs = graph_.Neighbors(v);
            if (nbrs.empty()) {
              ++o.empty_adjacency;
              continue;
            }
            size_t take = std::min(fanout, nbrs.size());
            o.edges += take;
            if (take == nbrs.size()) {
              o.sampled.insert(o.sampled.end(), nbrs.begin(), nbrs.end());
            } else {
              // Uniform sample without replacement (partial Fisher-Yates
              // over a copy; neighbourhoods at these fanouts are small).
              reservoir.assign(nbrs.begin(), nbrs.end());
              for (size_t j = 0; j < take; ++j) {
                size_t s = j + chunk_rng.NextBounded(reservoir.size() - j);
                std::swap(reservoir[j], reservoir[s]);
              }
              o.sampled.insert(o.sampled.end(), reservoir.begin(),
                               reservoir.begin() + static_cast<int64_t>(take));
            }
          }
        });
    next.clear();
    size_t hop_edge_count = 0;
    size_t hop_sampled = 0;
    for (const ChunkOut& o : out) {
      hop_edge_count += o.edges;
      hop_sampled += o.sampled.size();
      empty_adjacency += o.empty_adjacency;
      profile.remote_sampling_requests += o.remote_requests;
      for (VertexId u : o.sampled) {
        if (visit_stamp_[u] != now) {
          visit_stamp_[u] = now;
          input.push_back(u);
          next.push_back(u);
        }
      }
    }
    profile.computation_edges += hop_edge_count;
    profile.frontier_sizes.push_back(next.size());
    profile.hop_edges.push_back(hop_edge_count);
    revisit_skips += hop_sampled - next.size();
    frontier.swap(next);
  }

  profile.input_vertices = input.size();
  if (parts) {
    profile.local_input_vertices = ParallelReduce<size_t>(
        input.size(), kInputGrain, 0,
        [&](size_t begin, size_t end, size_t) {
          size_t local = 0;
          for (size_t i = begin; i < end; ++i) {
            if (parts->assignment[input[i]] == owner) ++local;
          }
          return local;
        },
        [](size_t acc, size_t part) { return acc + part; });
    profile.remote_input_vertices =
        input.size() - profile.local_input_vertices;
  }
  GNNPART_CHECK_CHEAP(parts == nullptr ||
                          profile.local_input_vertices +
                                  profile.remote_input_vertices ==
                              profile.input_vertices,
                      "mini-batch locality counts do not sum to the input "
                      "set");
  GNNPART_CHECK_CHEAP(profile.frontier_sizes.size() ==
                          profile.hop_edges.size() + 1,
                      "mini-batch hop vectors out of shape");

  // Per-batch telemetry: handles are function-local statics so repeated
  // batches pay one thread-local shard write per counter, no registry
  // lookups. Safe inside parallel regions (shards are per-thread).
  static const obs::Counter batches =
      obs::GetCounter("sampler/neighbor/batches", "batches");
  static const obs::Counter sampled_edges =
      obs::GetCounter("sampler/neighbor/sampled_edges", "edges");
  static const obs::Counter remote_requests =
      obs::GetCounter("sampler/neighbor/remote_requests", "requests");
  static const obs::Counter empty_skips =
      obs::GetCounter("sampler/neighbor/empty_adjacency_skips", "vertices");
  static const obs::Counter revisits =
      obs::GetCounter("sampler/neighbor/revisit_skips", "vertices");
  static const obs::Histogram input_hist = obs::GetHistogram(
      "sampler/neighbor/batch_input_vertices", "vertices",
      obs::Pow2Buckets(24));
  batches.Inc();
  sampled_edges.Add(profile.computation_edges);
  remote_requests.Add(profile.remote_sampling_requests);
  empty_skips.Add(empty_adjacency);
  revisits.Add(revisit_skips);
  input_hist.Observe(profile.input_vertices);
  return profile;
}

}  // namespace oracle
}  // namespace gnnpart
