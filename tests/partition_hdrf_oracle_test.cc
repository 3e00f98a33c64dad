// Differential test of HDRF's replica-class engine against the score-every-
// partition loop it replaced (tests/hdrf_oracle.*): on the full shuffled
// stream and on the shard streams split-merge feeds it, both must give equal
// assignments and equal edges_assigned / score_evals counters, for every
// dataset, k, lambda and epsilon.
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
#include "hdrf_oracle.h"
#include "obs/metrics.h"
#include "partition/edge/hdrf.h"
#include "partition/split_merge.h"

namespace gnnpart {
namespace {

constexpr PartitionId kKs[] = {1, 2, 4, 32, 64};
// 0: replication alone decides; 1e-300: the balance term underflows next to
// any replica; 1e6: balance alone decides.
constexpr double kLambdas[] = {0.0, 1e-300, 1.1, 1e6};
constexpr double kEpsilons[] = {1.0, 1e-12};

struct GraphCase {
  std::string name;
  Graph graph;
};

/// A star (centre 0, leaves 1..120) with a path hanging off a leaf and
/// isolated vertices after it: the centre's replica set soon covers every
/// partition, so most edges score in the "both" or "u only" class.
Graph Star() {
  GraphBuilder builder(160, /*directed=*/false);
  for (VertexId leaf = 1; leaf <= 120; ++leaf) builder.AddEdge(0, leaf);
  for (VertexId v = 120; v < 130; ++v) builder.AddEdge(v, v + 1);
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
  cases.push_back({"star", Star()});
  return cases;
}

/// The oracle behind the streaming interface, so split-merge feeds it
/// exactly as it feeds HdrfPartitioner.
class OracleHdrf : public StreamingEdgePartitioner {
 public:
  OracleHdrf(double lambda, double epsilon)
      : lambda_(lambda), epsilon_(epsilon) {}
  std::string name() const override { return "HDRF"; }
  std::string category() const override { return "stateful streaming"; }
  Result<EdgePartitioning> Partition(const Graph& graph, PartitionId k,
                                     uint64_t seed) const override {
    GNNPART_RETURN_NOT_OK(CheckArgs(graph, k));
    EdgePartitioning result;
    result.k = k;
    result.assignment.assign(graph.num_edges(), kInvalidPartition);
    std::vector<EdgeId> order(graph.num_edges());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    rng.Shuffle(&order);
    GNNPART_RETURN_NOT_OK(
        PartitionStream(graph, order, k, &rng, &result.assignment));
    return result;
  }
  Status PartitionStream(const Graph& graph, const std::vector<EdgeId>& stream,
                         PartitionId k, Rng* /*rng*/,
                         std::vector<PartitionId>* assignment) const override {
    return oracle::HdrfPartitionStream(graph, stream, k, lambda_, epsilon_,
                                       assignment);
  }

 private:
  double lambda_;
  double epsilon_;
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

constexpr const char* kCounters[] = {"partition/edge/HDRF/edges_assigned",
                                     "partition/edge/HDRF/score_evals"};

/// A run's observable result: the assignment (with the shard
/// sub-assignment under split-merge) and the two counter increments.
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
  std::vector<uint64_t> before;
  for (const char* c : kCounters) before.push_back(CounterValue(c));
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
    out.counters.push_back(CounterValue(kCounters[i]) - before[i]);
  }
  return out;
}

void ExpectEnginesAgree(int split_factor) {
  for (const GraphCase& gc : Graphs()) {
    for (PartitionId k : kKs) {
      for (double lambda : kLambdas) {
        for (double epsilon : kEpsilons) {
          const uint64_t seed = 11 + k;
          SCOPED_TRACE(gc.name + " k=" + std::to_string(k) +
                       " lambda=" + Num(lambda) + " epsilon=" + Num(epsilon) +
                       " split=" + std::to_string(split_factor));
          Outcome fast =
              Run(std::make_unique<HdrfPartitioner>(lambda, epsilon),
                  gc.graph, k, seed, split_factor);
          Outcome ref = Run(std::make_unique<OracleHdrf>(lambda, epsilon),
                            gc.graph, k, seed, split_factor);
          EXPECT_EQ(fast.assignment, ref.assignment);
          EXPECT_EQ(fast.sub_assignment, ref.sub_assignment);
          EXPECT_EQ(fast.counters, ref.counters);
          EXPECT_EQ(fast.counters[0], gc.graph.num_edges());
          EXPECT_EQ(fast.counters[1], gc.graph.num_edges() * k);
        }
      }
    }
  }
}

TEST(HdrfOracleTest, FullStreamMatchesScoreEveryPartitionLoopBitwise) {
  ExpectEnginesAgree(1);
}

TEST(HdrfOracleTest, ShardStreamsMatchScoreEveryPartitionLoopBitwise) {
  ExpectEnginesAgree(3);
}

TEST(HdrfOracleTest, ManySmallShardsMatchScoreEveryPartitionLoopBitwise) {
  ExpectEnginesAgree(8);
}

}  // namespace
}  // namespace gnnpart
