#include "dyn/stream.h"

#include <algorithm>
#include <numeric>

#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace dyn {

Result<EdgeStream> BuildEdgeStream(const Graph& full, size_t growth_batches,
                                   double initial_fraction, uint64_t seed) {
  const size_t m = full.num_edges();
  if (m == 0) {
    return Status::InvalidArgument("edge stream: graph has no edges");
  }
  if (!(initial_fraction > 0.0) || initial_fraction > 1.0) {
    return Status::InvalidArgument(
        "edge stream: initial_fraction must be in (0, 1]");
  }

  EdgeStream stream;
  stream.growth_batches = growth_batches;
  stream.order.resize(m);
  std::iota(stream.order.begin(), stream.order.end(), EdgeId{0});
  Rng rng(seed);
  rng.Shuffle(&stream.order);

  // Batch 0 takes the initial fraction (at least one edge); the remainder
  // tiles over the growth batches with the same fixed boundaries ShardRange
  // gives split-merge shards. Later growth batches may legally be empty
  // when the graph is small.
  size_t m0 = m;
  if (growth_batches > 0) {
    m0 = static_cast<size_t>(initial_fraction * static_cast<double>(m));
    m0 = std::min(m, std::max<size_t>(1, m0));
  }
  const size_t rest = m - m0;
  stream.batch_begin.resize(growth_batches + 2);
  stream.batch_begin[0] = 0;
  stream.batch_begin[1] = m0;
  for (size_t b = 1; b <= growth_batches; ++b) {
    stream.batch_begin[b + 1] =
        m0 + ShardRange(rest, growth_batches, b - 1).second;
  }

  // Re-draw the arrival order inside each batch from that batch's own RNG
  // stream. Batches are disjoint subranges of `order`, so the parallel loop
  // is race-free, and each batch's permutation is a pure function of
  // (batch_base, batch id) — bit-identical at any --threads.
  const uint64_t batch_base = rng.Next();
  ParallelFor(growth_batches + 1, 1,
              [&](size_t begin, size_t end, size_t) {
                for (size_t b = begin; b < end; ++b) {
                  const size_t lo = stream.batch_begin[b];
                  const size_t hi = stream.batch_begin[b + 1];
                  if (hi - lo < 2) continue;
                  std::vector<EdgeId> window(stream.order.begin() + lo,
                                             stream.order.begin() + hi);
                  Rng batch_rng = ChunkRng(batch_base, b);
                  batch_rng.Shuffle(&window);
                  std::copy(window.begin(), window.end(),
                            stream.order.begin() + lo);
                }
              });

  obs::Count("dyn/stream/edges_scheduled", m, "edges");
  obs::Count("dyn/stream/growth_batches", growth_batches, "batches");
  return stream;
}

std::vector<EdgeId> ArrivedEdges(const EdgeStream& stream, size_t b) {
  const size_t count = stream.arrived_after(b);
  std::vector<uint8_t> mark(stream.order.size(), 0);
  for (size_t i = 0; i < count; ++i) mark[stream.order[i]] = 1;
  std::vector<EdgeId> arrived;
  arrived.reserve(count);
  for (size_t e = 0; e < mark.size(); ++e) {
    if (mark[e]) arrived.push_back(static_cast<EdgeId>(e));
  }
  return arrived;
}

}  // namespace dyn
}  // namespace gnnpart
