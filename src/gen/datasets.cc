#include "gen/datasets.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/rng.h"
#include "gen/generators.h"

namespace gnnpart {

std::vector<DatasetId> AllDatasets() {
  return {DatasetId::kHollywood, DatasetId::kDimacsUsa, DatasetId::kEnwiki,
          DatasetId::kEu, DatasetId::kOrkut};
}

std::string DatasetCode(DatasetId id) {
  switch (id) {
    case DatasetId::kHollywood:
      return "HW";
    case DatasetId::kDimacsUsa:
      return "DI";
    case DatasetId::kEnwiki:
      return "EN";
    case DatasetId::kEu:
      return "EU";
    case DatasetId::kOrkut:
      return "OR";
  }
  return "??";
}

std::string DatasetCategory(DatasetId id) {
  switch (id) {
    case DatasetId::kHollywood:
      return "Colla.";
    case DatasetId::kDimacsUsa:
      return "Road";
    case DatasetId::kEnwiki:
      return "Wiki";
    case DatasetId::kEu:
      return "Web";
    case DatasetId::kOrkut:
      return "Social";
  }
  return "?";
}

bool DatasetDirected(DatasetId id) {
  switch (id) {
    case DatasetId::kHollywood:
    case DatasetId::kOrkut:
      return false;
    case DatasetId::kDimacsUsa:
    case DatasetId::kEnwiki:
    case DatasetId::kEu:
      return true;
  }
  return false;
}

Result<DatasetId> ParseDatasetCode(const std::string& code) {
  std::string up = code;
  std::transform(up.begin(), up.end(), up.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (DatasetId id : AllDatasets()) {
    if (DatasetCode(id) == up) return id;
  }
  return Status::NotFound("unknown dataset code '" + code + "'");
}

namespace {

// Scale-1 vertex count of a power-law dataset (the road grid DI is sized
// by its side instead).
size_t BaseVertexCount(DatasetId id) {
  switch (id) {
    case DatasetId::kHollywood:
      return 32000;
    case DatasetId::kEnwiki:
      return 40000;
    case DatasetId::kEu:
      return 44000;
    case DatasetId::kOrkut:
      return 24000;
    case DatasetId::kDimacsUsa:
      break;
  }
  return 0;
}

}  // namespace

Result<Graph> MakeDataset(DatasetId id, double scale, uint64_t seed) {
  if (!std::isfinite(scale)) {
    return Status::InvalidArgument("dataset scale must be finite");
  }
  if (scale <= 0) {
    return Status::InvalidArgument("dataset scale must be > 0");
  }
  // The road grid is side x side; the other datasets scale a base vertex
  // count. Refuse before allocating when the ids would not fit.
  const double side = std::max(8.0, std::round(220 * std::sqrt(scale)));
  const double vertices = id == DatasetId::kDimacsUsa
                              ? side * side
                              : std::round(BaseVertexCount(id) * scale);
  if (vertices >= static_cast<double>(kInvalidVertex)) {
    return Status::OutOfRange(
        "dataset scale too large: more vertices than a 32-bit id holds");
  }
  uint64_t s = HashCombine64(seed, static_cast<uint64_t>(id));
  auto scaled = [&](size_t base) {
    return std::max<size_t>(16, static_cast<size_t>(
                                    std::llround(base * scale)));
  };
  Result<Graph> result = Status::Internal("unreachable");
  switch (id) {
    case DatasetId::kHollywood: {
      // Collaboration network: dense power law (orig. mean degree ~114
      // symmetrized) with strong community structure (productions).
      PowerLawCommunityParams p;
      p.num_vertices = scaled(BaseVertexCount(id));
      p.num_edges = scaled(640000);
      p.skew = 0.78;
      p.num_communities = 96;
      p.mixing = 0.85;
      p.directed = false;
      result = GeneratePowerLawCommunity(p, s);
      break;
    }
    case DatasetId::kDimacsUsa: {
      // Road network: tiny mean degree, no skew, huge diameter.
      RoadParams p;
      p.width = static_cast<size_t>(side);
      p.height = static_cast<size_t>(side);
      p.diagonal_prob = 0.05;
      p.deletion_prob = 0.03;
      p.directed = true;
      result = GenerateRoadNetwork(p, s);
      break;
    }
    case DatasetId::kEnwiki: {
      // Wiki link graph: directed power law with looser topical communities.
      PowerLawCommunityParams p;
      p.num_vertices = scaled(BaseVertexCount(id));
      p.num_edges = scaled(600000);
      p.skew = 0.82;
      p.num_communities = 64;
      p.mixing = 0.7;
      p.directed = true;
      result = GeneratePowerLawCommunity(p, s);
      break;
    }
    case DatasetId::kEu: {
      // Web crawl: extreme hub skew and very strong host locality.
      PowerLawCommunityParams p;
      p.num_vertices = scaled(BaseVertexCount(id));
      p.num_edges = scaled(700000);
      p.skew = 0.95;
      p.num_communities = 128;
      p.mixing = 0.9;
      p.directed = true;
      result = GeneratePowerLawCommunity(p, s);
      break;
    }
    case DatasetId::kOrkut: {
      // Social network: dense, heavy-tailed but flatter than web, with
      // weaker community structure than the collaboration graph.
      PowerLawCommunityParams p;
      p.num_vertices = scaled(BaseVertexCount(id));
      p.num_edges = scaled(600000);
      p.skew = 0.75;
      p.num_communities = 48;
      p.mixing = 0.75;
      p.directed = false;
      result = GeneratePowerLawCommunity(p, s);
      break;
    }
  }
  if (!result.ok()) return result.status();
  // Rebuild with the dataset name attached.
  Graph g = std::move(result).value();
  GraphBuilder builder(g.num_vertices(), g.directed());
  builder.Reserve(g.num_edges());
  for (const Edge& e : g.edges()) builder.AddEdge(e.src, e.dst);
  return builder.Build(DatasetCode(id));
}

}  // namespace gnnpart
