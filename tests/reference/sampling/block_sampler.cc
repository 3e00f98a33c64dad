#include "sampling/block_sampler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "check/check.h"
#include "common/parallel.h"
#include "obs/memory.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

// Frontier vertices per chunk and RNG stream: NeighborSampler's stream
// length (kRngStream in neighbor_sampler.cc), so both draw the same streams.
constexpr size_t kFrontierGrain = 256;

}  // namespace

Result<Graph> SampledBlock::BuildLocalGraph() const {
  GraphBuilder builder(vertices.size(), /*directed=*/false);
  builder.Reserve(local_edges.size());
  for (const Edge& e : local_edges) builder.AddEdge(e.src, e.dst);
  return builder.Build("block");
}

BlockSampler::BlockSampler(const Graph& graph)
    : graph_(graph),
      local_index_(graph.num_vertices(), 0),
      visit_stamp_(graph.num_vertices(), 0) {}

SampledBlock BlockSampler::SampleBlock(std::span<const VertexId> seeds,
                                       const std::vector<size_t>& fanouts,
                                       Rng* rng) const {
  SampledBlock block;
  ++stamp_;
  if (stamp_ == 0) {
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    stamp_ = 1;
  }
  const uint32_t now = stamp_;
  auto local_of = [&](VertexId v) -> uint32_t {
    if (visit_stamp_[v] != now) {
      visit_stamp_[v] = now;
      local_index_[v] = static_cast<uint32_t>(block.vertices.size());
      block.vertices.push_back(v);
    }
    return local_index_[v];
  };

  std::vector<VertexId> frontier;
  for (VertexId s : seeds) {
    size_t before = block.vertices.size();
    local_of(s);
    if (block.vertices.size() > before) frontier.push_back(s);
  }
  block.num_seeds = block.vertices.size();

  // Draws as NeighborSampler does (one RNG stream per 256-vertex frontier
  // chunk, partial Fisher-Yates), but fans the chunks out on the pool,
  // since blocks are not sampled inside ParallelSample. Chunks emit
  // global-id edge pairs; the serial chunk-order merge maps them to local
  // indices and dedups via visit stamps, so block contents are
  // bit-identical for every thread count.
  std::vector<VertexId> next;
  size_t revisit_hits = 0;  // sampled endpoints already in the block
  for (size_t fanout : fanouts) {
    const size_t chunks = NumChunks(frontier.size(), kFrontierGrain);
    const uint64_t layer_base = rng->Next();
    std::vector<std::vector<std::pair<VertexId, VertexId>>> out(chunks);
    ParallelFor(
        frontier.size(), kFrontierGrain,
        [&](size_t begin, size_t end, size_t chunk) {
          Rng chunk_rng = ChunkRng(layer_base, chunk);
          auto& o = out[chunk];
          std::vector<VertexId> reservoir;
          for (size_t i = begin; i < end; ++i) {
            VertexId v = frontier[i];
            auto nbrs = graph_.Neighbors(v);
            if (nbrs.empty()) continue;
            size_t take = std::min(fanout, nbrs.size());
            reservoir.assign(nbrs.begin(), nbrs.end());
            if (take < reservoir.size()) {
              for (size_t j = 0; j < take; ++j) {
                size_t s = j + chunk_rng.NextBounded(reservoir.size() - j);
                std::swap(reservoir[j], reservoir[s]);
              }
              reservoir.resize(take);
            }
            for (VertexId u : reservoir) o.emplace_back(v, u);
          }
        });
    next.clear();
    for (const auto& o : out) {
      for (const auto& [v, u] : o) {
        uint32_t lv = local_index_[v];  // v was indexed as a frontier vertex
        size_t before = block.vertices.size();
        uint32_t lu = local_of(u);
        block.local_edges.push_back(
            {static_cast<VertexId>(lv), static_cast<VertexId>(lu)});
        if (block.vertices.size() > before) {
          next.push_back(u);
        } else {
          ++revisit_hits;
        }
      }
    }
    frontier.swap(next);
  }
  GNNPART_CHECK_CHEAP(block.num_seeds <= block.vertices.size(),
                      "sampled block lost its seed prefix");
  if constexpr (check::ParanoidEnabled()) {
    for (const Edge& e : block.local_edges) {
      GNNPART_CHECK_PARANOID(
          e.src < block.vertices.size() && e.dst < block.vertices.size(),
          "sampled block edge indexes outside the block (frontier "
          "containment)");
      GNNPART_CHECK_PARANOID(
          graph_.HasEdge(block.vertices[e.src], block.vertices[e.dst]),
          "sampled block contains a phantom edge");
    }
  }

  // Per-block telemetry (see neighbor_sampler.cc for the idiom).
  static const obs::Counter blocks =
      obs::GetCounter("sampler/block/blocks", "blocks");
  static const obs::Counter sampled_edges =
      obs::GetCounter("sampler/block/sampled_edges", "edges");
  static const obs::Counter revisits =
      obs::GetCounter("sampler/block/revisit_hits", "vertices");
  static const obs::Histogram size_hist = obs::GetHistogram(
      "sampler/block/block_vertices", "vertices", obs::Pow2Buckets(24));
  blocks.Inc();
  sampled_edges.Add(block.local_edges.size());
  revisits.Add(revisit_hits);
  size_hist.Observe(block.vertices.size());
  obs::RecordStructureBytes("sampler_block",
                       block.vertices.size() * sizeof(VertexId) +
                           block.local_edges.size() * sizeof(Edge));
  return block;
}

namespace check {
namespace {

Status Violation(const std::string& invariant, const std::string& detail) {
  return Status::FailedPrecondition(invariant + ": " + detail);
}

}  // namespace

Status ValidateBlock(const Graph& graph, const SampledBlock& block,
                     const std::vector<size_t>& fanouts) {
  if (block.num_seeds > block.vertices.size()) {
    return Violation("block/seed-count",
                     std::to_string(block.num_seeds) + " seeds but only " +
                         std::to_string(block.vertices.size()) +
                         " block vertices");
  }
  for (VertexId v : block.vertices) {
    if (v >= graph.num_vertices()) {
      return Violation("block/vertex-range",
                       "block vertex " + std::to_string(v) + " >= |V|=" +
                           std::to_string(graph.num_vertices()));
    }
  }
  std::vector<VertexId> sorted(block.vertices);
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Violation("block/vertex-duplicate",
                     "block vertex list contains duplicates");
  }
  size_t max_fanout = 0;
  for (size_t f : fanouts) max_fanout = std::max(max_fanout, f);
  std::vector<size_t> out_degree(block.vertices.size(), 0);
  for (const Edge& e : block.local_edges) {
    if (e.src >= block.vertices.size() || e.dst >= block.vertices.size()) {
      return Violation("block/edge-index-range",
                       "local edge (" + std::to_string(e.src) + ", " +
                           std::to_string(e.dst) + ") indexes past " +
                           std::to_string(block.vertices.size()) +
                           " block vertices (frontier containment)");
    }
    if (!graph.HasEdge(block.vertices[e.src], block.vertices[e.dst])) {
      return Violation("block/phantom-edge",
                       "sampled edge (" +
                           std::to_string(block.vertices[e.src]) + ", " +
                           std::to_string(block.vertices[e.dst]) +
                           ") does not exist in the graph");
    }
    ++out_degree[e.src];
  }
  for (size_t i = 0; i < out_degree.size(); ++i) {
    if (out_degree[i] > max_fanout) {
      return Violation("block/fanout-exceeded",
                       "block vertex " + std::to_string(i) + " sampled " +
                           std::to_string(out_degree[i]) +
                           " out-edges, max fan-out is " +
                           std::to_string(max_fanout));
    }
  }
  return Status::Ok();
}

}  // namespace check
}  // namespace gnnpart
