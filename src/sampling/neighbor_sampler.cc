#include "sampling/neighbor_sampler.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "check/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

// Frontier vertices per RNG stream: the draw pass seeds a fresh stream every
// kRngStream vertices of a layer's frontier.
constexpr size_t kRngStream = 256;

// Picks the gather pass prefetches ahead: each pick's adjacency entry is a
// dependent load that misses L2 on the study's graphs.
constexpr size_t kPrefetch = 32;

// Advances a scratch stamp, zeroing the stamped array when it wraps.
template <typename T>
uint32_t NextStamp(uint32_t* stamp, std::vector<T>* stamped) {
  if (++*stamp == 0) {
    std::fill(stamped->begin(), stamped->end(), T{});
    *stamp = 1;
  }
  return *stamp;
}

}  // namespace

NeighborSampler::NeighborSampler(const Graph& graph)
    : graph_(graph), visit_stamp_(graph.num_vertices(), 0) {}

MiniBatchProfile NeighborSampler::SampleBatch(
    std::span<const VertexId> seeds, const std::vector<size_t>& fanouts,
    const VertexPartitioning* parts, PartitionId owner, Rng* rng) const {
  MiniBatchProfile profile;
  profile.seeds = seeds.size();
  const uint32_t now = NextStamp(&stamp_, &visit_stamp_);
  const PartitionId* const assignment =
      parts ? parts->assignment.data() : nullptr;

  // Locality is counted at first visit, branchlessly; without a
  // partitioning `local` counts every input vertex and is not published.
  size_t distinct_seeds = 0;
  size_t local = 0;
  for (VertexId v : seeds) {
    const bool fresh = visit_stamp_[v] != now;
    visit_stamp_[v] = now;
    distinct_seeds += fresh;
    local += fresh & (assignment == nullptr || assignment[v] == owner);
  }
  profile.frontier_sizes.push_back(seeds.size());

  std::span<const VertexId> frontier = seeds;
  size_t input = distinct_seeds;
  size_t empty_adjacency = 0;  // accumulated locally, published once below
  size_t revisit_skips = 0;    // sampled endpoints already in the batch
  for (size_t fanout : fanouts) {
    // Draw pass: pick pointers into the adjacency, in frontier order.
    const uint64_t layer_base = rng->Next();
    picks_.clear();
    size_t hop_edge_count = 0;
    for (size_t begin = 0; begin < frontier.size(); begin += kRngStream) {
      Rng chunk_rng = ChunkRng(layer_base, begin / kRngStream);
      const size_t end = std::min(frontier.size(), begin + kRngStream);
      for (size_t i = begin; i < end; ++i) {
        const VertexId v = frontier[i];
        if (assignment && assignment[v] != owner) {
          ++profile.remote_sampling_requests;
        }
        const std::span<const VertexId> nbrs = graph_.Neighbors(v);
        const size_t d = nbrs.size();
        if (d == 0) {
          ++empty_adjacency;
          continue;
        }
        const size_t take = std::min(fanout, d);
        hop_edge_count += take;
        if (take == d) {
          for (const VertexId& u : nbrs) picks_.push_back(&u);
          continue;
        }
        // Uniform sample without replacement: a partial Fisher-Yates over
        // positions 0..d-1, where slot s holds position s until a swap
        // stamps it with this vertex's stamp.
        if (slots_.size() < d) slots_.resize(d);
        const uint32_t vs = NextStamp(&slot_stamp_, &slots_);
        for (size_t j = 0; j < take; ++j) {
          const size_t s = j + chunk_rng.NextBounded(d - j);
          const uint32_t at_s = slots_[s].stamp == vs
                                    ? slots_[s].pos
                                    : static_cast<uint32_t>(s);
          const uint32_t at_j = slots_[j].stamp == vs
                                    ? slots_[j].pos
                                    : static_cast<uint32_t>(j);
          slots_[s] = {vs, at_j};
          picks_.push_back(&nbrs[at_s]);
        }
      }
    }

    // Gather pass: read each pick, keep it if this is its first visit.
    // The next-frontier buffer only grows, so no pick can overrun it.
    const size_t n = picks_.size();
    if (next_.size() < n) next_.resize(n);
    size_t fresh_count = 0;
    size_t repeats = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetch < n) __builtin_prefetch(picks_[i + kPrefetch]);
      const VertexId u = *picks_[i];
      const bool seen = visit_stamp_[u] == now;
      visit_stamp_[u] = now;
      next_[fresh_count] = u;
      fresh_count += !seen;
      repeats += seen;
      local += !seen & (assignment == nullptr || assignment[u] == owner);
    }
    profile.computation_edges += n;
    profile.frontier_sizes.push_back(fresh_count);
    profile.hop_edges.push_back(hop_edge_count);
    input += n - repeats;
    revisit_skips += repeats;
    frontier_.swap(next_);
    frontier = {frontier_.data(), fresh_count};
  }

  profile.input_vertices = input;
  if (parts) {
    profile.local_input_vertices = local;
    profile.remote_input_vertices = input - local;
  }
  GNNPART_CHECK_CHEAP(profile.frontier_sizes.size() ==
                          profile.hop_edges.size() + 1,
                      "mini-batch hop vectors out of shape");
  GNNPART_CHECK_CHEAP(
      profile.input_vertices ==
          std::accumulate(profile.frontier_sizes.begin() + 1,
                          profile.frontier_sizes.end(), distinct_seeds),
      "mini-batch input set is not the distinct seeds plus each hop's new "
      "vertices");
  GNNPART_CHECK_CHEAP(
      profile.computation_edges ==
          std::accumulate(profile.hop_edges.begin(), profile.hop_edges.end(),
                          size_t{0}),
      "mini-batch computation edges are not the sum of its hop edges");

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

void ParallelSample(
    const Graph& graph, size_t n, const std::string& metric_prefix,
    const std::function<void(const NeighborSampler& sampler, size_t begin,
                             size_t end)>& fn) {
  const obs::Counter reused = obs::GetCounter(
      metric_prefix + "/sampler_reuse", "samplers", /*deterministic=*/false);
  const obs::Counter allocated = obs::GetCounter(
      metric_prefix + "/sampler_alloc", "samplers", /*deterministic=*/false);
  std::mutex mu;  // guards free_list
  std::vector<std::unique_ptr<NeighborSampler>> free_list;
  ParallelFor(n, 1, [&](size_t begin, size_t end, size_t) {
    std::unique_ptr<NeighborSampler> sampler;
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!free_list.empty()) {
        sampler = std::move(free_list.back());
        free_list.pop_back();
      }
    }
    if (sampler) {
      reused.Inc();
    } else {
      sampler = std::make_unique<NeighborSampler>(graph);
      allocated.Inc();
    }
    fn(*sampler, begin, end);
    std::lock_guard<std::mutex> lk(mu);
    free_list.push_back(std::move(sampler));
  });
}

}  // namespace gnnpart
