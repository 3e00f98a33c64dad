// Differential test of HEP's low-low CSR engine and replica-class streaming
// tail against the incidence-list engine and score-every-partition tail they
// replaced (tests/hep_oracle.*): on the full edge stream and on the shuffled
// contiguous shard streams split-merge feeds it, both must give equal
// assignments and equal edges_assigned / in_memory_edges / streamed_edges /
// score_evals counters, for every dataset, tau, k, alpha and lambda.
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/datasets.h"
#include "hep_oracle.h"
#include "obs/metrics.h"
#include "partition/edge/hep.h"
#include "partition/split_merge.h"

namespace gnnpart {
namespace {

constexpr double kTaus[] = {1.0, 2.5, 10.0, 100.0};
constexpr PartitionId kKs[] = {1, 2, 4, 32, 64};

/// HEP's balance knobs. The default pair; lambda = 1e-300, where the
/// balance term vanishes next to any replica, so equal-load ties between
/// replica classes send the streaming tail to its full scoring loop; and
/// alpha = 0.5, whose cap every partition reaches, so the tail skips capped
/// partitions and, once all are capped, falls back to the least load.
struct Knobs {
  double alpha;
  double lambda;
};
constexpr Knobs kKnobs[] = {{1.05, 1.1}, {1.05, 1e-300}, {0.5, 1.1}};

struct GraphCase {
  std::string name;
  Graph graph;
};

/// A star (centre 0, leaves 1..120) with a short path hanging off a leaf,
/// a triangle, and isolated vertices between and after them: the centre is
/// high-degree at every tau below ~100, and the isolated vertices make
/// the mean degree (and so the threshold) lower than the edge count says.
Graph StarWithIsolated() {
  GraphBuilder builder(200, /*directed=*/false);
  for (VertexId leaf = 1; leaf <= 120; ++leaf) builder.AddEdge(0, leaf);
  for (VertexId v = 120; v < 130; ++v) builder.AddEdge(v, v + 1);
  builder.AddEdge(150, 151);
  builder.AddEdge(151, 152);
  builder.AddEdge(152, 150);
  Result<Graph> g = builder.Build("star");
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

std::vector<GraphCase> Graphs() {
  std::vector<GraphCase> cases;
  for (DatasetId id : AllDatasets()) {
    Result<Graph> g = MakeDataset(id, 0.02, 3);
    EXPECT_TRUE(g.ok()) << g.status();
    cases.push_back({DatasetCode(id), std::move(g).value()});
  }
  cases.push_back({"star", StarWithIsolated()});
  return cases;
}

/// The oracle behind the streaming interface, so split-merge feeds it
/// exactly as it feeds HepPartitioner.
class OracleHep : public StreamingEdgePartitioner {
 public:
  OracleHep(double tau, Knobs knobs) : tau_(tau), knobs_(knobs) {}
  std::string name() const override { return HepPartitioner(tau_).name(); }
  std::string category() const override { return "hybrid"; }
  Result<EdgePartitioning> Partition(const Graph& graph, PartitionId k,
                                     uint64_t seed) const override {
    GNNPART_RETURN_NOT_OK(CheckArgs(graph, k));
    EdgePartitioning result;
    result.k = k;
    result.assignment.assign(graph.num_edges(), kInvalidPartition);
    std::vector<EdgeId> stream(graph.num_edges());
    std::iota(stream.begin(), stream.end(), 0);
    Rng rng(seed);
    GNNPART_RETURN_NOT_OK(
        PartitionStream(graph, stream, k, &rng, &result.assignment));
    return result;
  }
  Status PartitionStream(const Graph& graph, const std::vector<EdgeId>& stream,
                         PartitionId k, Rng* rng,
                         std::vector<PartitionId>* assignment) const override {
    return oracle::HepPartitionStream(graph, stream, k, tau_, knobs_.alpha,
                                      knobs_.lambda, rng, assignment);
  }

 private:
  double tau_;
  Knobs knobs_;
};

/// `x` as %g would print it: 1e-300, not to_string's 0.000000.
std::string Num(double x) {
  std::ostringstream out;
  out << x;
  return out.str();
}

uint64_t CounterValue(const std::string& name) {
  for (const obs::MetricRow& row : obs::Snapshot().rows) {
    if (row.name == name) return row.value;
  }
  return 0;
}

constexpr const char* kCounters[] = {"edges_assigned", "in_memory_edges",
                                     "streamed_edges", "score_evals"};

/// A run's observable result: the assignment (with the shard
/// sub-assignment under split-merge) and the four counter increments.
struct Outcome {
  std::vector<PartitionId> assignment;
  std::vector<uint32_t> sub_assignment;
  std::vector<uint64_t> counters;
};

/// Runs `partitioner` (split factor 1 = the sequential Partition) and
/// returns its outcome.
Outcome Run(std::unique_ptr<StreamingEdgePartitioner> partitioner,
            const Graph& graph, PartitionId k, uint64_t seed,
            int split_factor) {
  const std::string prefix = "partition/edge/" + partitioner->name() + "/";
  std::vector<uint64_t> before;
  for (const char* c : kCounters) before.push_back(CounterValue(prefix + c));
  Outcome out;
  SplitMergePlan plan;
  Result<EdgePartitioning> parts =
      split_factor == 1
          ? partitioner->Partition(graph, k, seed)
          : SplitMergePartitioner(std::move(partitioner), split_factor)
                .PartitionWithPlan(graph, k, seed, &plan);
  EXPECT_TRUE(parts.ok()) << parts.status();
  if (parts.ok()) out.assignment = parts->assignment;
  out.sub_assignment = plan.sub_assignment;
  for (size_t i = 0; i < std::size(kCounters); ++i) {
    out.counters.push_back(CounterValue(prefix + kCounters[i]) - before[i]);
  }
  return out;
}

void ExpectEnginesAgree(int split_factor) {
  for (const GraphCase& gc : Graphs()) {
    for (double tau : kTaus) {
      for (PartitionId k : kKs) {
        for (Knobs knobs : kKnobs) {
          const uint64_t seed = 7 + k;
          SCOPED_TRACE(gc.name + " tau=" + std::to_string(tau) +
                       " k=" + std::to_string(k) +
                       " alpha=" + Num(knobs.alpha) +
                       " lambda=" + Num(knobs.lambda) +
                       " split=" + std::to_string(split_factor));
          Outcome csr = Run(
              std::make_unique<HepPartitioner>(tau, knobs.alpha, knobs.lambda),
              gc.graph, k, seed, split_factor);
          Outcome ref = Run(std::make_unique<OracleHep>(tau, knobs), gc.graph,
                            k, seed, split_factor);
          EXPECT_EQ(csr.assignment, ref.assignment);
          EXPECT_EQ(csr.sub_assignment, ref.sub_assignment);
          EXPECT_EQ(csr.counters, ref.counters);
          EXPECT_EQ(csr.counters[0], gc.graph.num_edges());
        }
      }
    }
  }
}

TEST(HepOracleTest, FullStreamMatchesIncidenceEngineBitwise) {
  ExpectEnginesAgree(1);
}

TEST(HepOracleTest, ShuffledShardStreamsMatchIncidenceEngineBitwise) {
  ExpectEnginesAgree(3);
}

TEST(HepOracleTest, ManySmallShardsMatchIncidenceEngineBitwise) {
  // Eight shards leave few edges per shard, so shards of the star see
  // mostly isolated vertices and a tiny mean degree.
  ExpectEnginesAgree(8);
}

}  // namespace
}  // namespace gnnpart
