// Differential test of the streaming vertex partitioners (LDG, ReLDG,
// Fennel and the ReLDG/ReFennel restreams) against their own loops as they
// stood before sharing one placement kernel (tests/streaming_oracle.*):
// equal assignments, equal `last_pass_moves` and equal
// `partition/vertex/<name>/*` counter increments on power-law, road,
// fragmented and tiny graphs.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/split.h"
#include "partition/vertex/fennel.h"
#include "partition/vertex/ldg.h"
#include "partition/vertex/random_vertex.h"
#include "partition/vertex/reldg.h"
#include "streaming_oracle.h"
#include "vertex_oracle_fixture.h"

namespace gnnpart {
namespace {

// k = 1 has one partition to pick; k = 7 leaves the loads uneven, which is
// where the lighter-partition tie rule decides; k = 64 is kMaxPartitions.
const std::vector<PartitionId> kParts = {1, 2, 7, 32, 64};
const std::vector<uint64_t> kSeeds = {1, 42, 977};

std::vector<std::string> Counters(const std::string& name,
                                  const std::vector<std::string>& suffixes) {
  std::vector<std::string> out;
  for (const std::string& s : suffixes) {
    out.push_back("partition/vertex/" + name + "/" + s);
  }
  return out;
}

std::string Cell(const GraphCase& gc, PartitionId k, uint64_t seed) {
  return gc.name + " k=" + std::to_string(k) + " seed=" + std::to_string(seed);
}

TEST(StreamingOracleTest, FreshPlacementMatchesBitwise) {
  const LdgPartitioner ldg;
  const FennelPartitioner fennel;
  const std::vector<std::string> ldg_counters =
      Counters("LDG", {"vertices_assigned", "score_evals"});
  const std::vector<std::string> fennel_counters =
      Counters("Fennel", {"vertices_assigned", "score_evals"});
  const std::vector<std::string> reldg_counters =
      Counters("ReLDG", {"vertices_assigned", "placements", "passes"});
  for (const GraphCase& gc : OracleGraphs()) {
    const VertexSplit split =
        VertexSplit::MakeRandom(gc.graph.num_vertices(), 0.1, 0.1, 1);
    for (PartitionId k : kParts) {
      for (uint64_t seed : kSeeds) {
        SCOPED_TRACE(Cell(gc, k, seed));
        auto [ldg_got, ldg_got_counts] = RunCounted(ldg_counters, [&] {
          return ldg.Partition(gc.graph, split, k, seed);
        });
        auto [ldg_ref, ldg_ref_counts] = RunCounted(ldg_counters, [&] {
          return oracle::LdgPartition(gc.graph, k, seed);
        });
        EXPECT_EQ(ldg_got, ldg_ref);
        EXPECT_EQ(ldg_got_counts, ldg_ref_counts);

        auto [fennel_got, fennel_got_counts] = RunCounted(
            fennel_counters,
            [&] { return fennel.Partition(gc.graph, split, k, seed); });
        auto [fennel_ref, fennel_ref_counts] =
            RunCounted(fennel_counters, [&] {
              return oracle::FennelPartition(gc.graph, k, seed);
            });
        EXPECT_EQ(fennel_got, fennel_ref);
        EXPECT_EQ(fennel_got_counts, fennel_ref_counts);

        for (int passes : {1, 4}) {
          SCOPED_TRACE("ReLDG passes=" + std::to_string(passes));
          const ReldgPartitioner reldg(passes);
          auto [got, got_counts] = RunCounted(reldg_counters, [&] {
            return reldg.Partition(gc.graph, split, k, seed);
          });
          auto [ref, ref_counts] = RunCounted(reldg_counters, [&] {
            return oracle::ReldgPartition(gc.graph, k, seed, passes);
          });
          EXPECT_EQ(got, ref);
          EXPECT_EQ(got_counts, ref_counts);
        }
      }
    }
  }
}

// Restreams `Engine::Repartition` and `reference` from a Random prior and
// from the engine's own fresh partitioning, over every bonus and pass cap.
template <typename Engine, typename Reference>
void ExpectRestreamMatches(const Engine& engine, Reference reference) {
  const std::vector<std::string> counters =
      Counters(engine.name(), {"repartition_moves", "repartition_passes"});
  const RandomVertexPartitioner random;
  for (const GraphCase& gc : OracleGraphs()) {
    const VertexSplit split =
        VertexSplit::MakeRandom(gc.graph.num_vertices(), 0.1, 0.1, 1);
    for (PartitionId k : kParts) {
      for (uint64_t seed : kSeeds) {
        Result<VertexPartitioning> from_random =
            random.Partition(gc.graph, split, k, seed);
        Result<VertexPartitioning> from_own =
            engine.Partition(gc.graph, split, k, seed);
        ASSERT_TRUE(from_random.ok() && from_own.ok());
        for (const auto& [prior_name, prior] :
             {std::make_pair("Random", &from_random->assignment),
              std::make_pair("own", &from_own->assignment)}) {
          for (double bonus : {0.0, 0.5, 3.0}) {
            for (int max_passes : {1, 4}) {
              SCOPED_TRACE(Cell(gc, k, seed) + " prior=" + prior_name +
                           " bonus=" + std::to_string(bonus) +
                           " max_passes=" + std::to_string(max_passes));
              uint64_t got_moves = ~0ULL;
              uint64_t ref_moves = ~0ULL;
              auto [got, got_counts] = RunCounted(counters, [&] {
                return engine.Repartition(gc.graph, split, k, seed, *prior,
                                          bonus, max_passes, &got_moves);
              });
              auto [ref, ref_counts] = RunCounted(counters, [&] {
                return reference(gc.graph, k, seed, *prior, bonus,
                                 max_passes, &ref_moves);
              });
              EXPECT_EQ(got, ref);
              EXPECT_EQ(got_moves, ref_moves);
              EXPECT_EQ(got_counts, ref_counts);
            }
          }
        }
      }
    }
  }
}

TEST(StreamingOracleTest, ReldgRestreamMatchesBitwise) {
  ExpectRestreamMatches(ReldgPartitioner(), oracle::ReldgRepartition);
}

TEST(StreamingOracleTest, FennelRestreamMatchesBitwise) {
  ExpectRestreamMatches(FennelPartitioner(), oracle::FennelRepartition);
}

TEST(StreamingOracleTest, MalformedPriorMessagesMatch) {
  const std::vector<GraphCase> graphs = OracleGraphs();
  const Graph& g = graphs.back().graph;
  const VertexSplit split =
      VertexSplit::MakeRandom(g.num_vertices(), 0.1, 0.1, 1);
  const std::vector<PartitionId> short_prior(g.num_vertices() - 1, 0);
  const std::vector<PartitionId> out_of_range(g.num_vertices(), 4);
  for (const std::vector<PartitionId>* prior : {&short_prior, &out_of_range}) {
    const Status reldg =
        ReldgPartitioner().Repartition(g, split, 4, 1, *prior, 0.5, 4).status();
    const Status reldg_ref =
        oracle::ReldgRepartition(g, 4, 1, *prior, 0.5, 4, nullptr).status();
    EXPECT_FALSE(reldg.ok());
    EXPECT_EQ(reldg.ToString(), reldg_ref.ToString());
    const Status fennel =
        FennelPartitioner().Repartition(g, split, 4, 1, *prior, 0.5, 4).status();
    const Status fennel_ref =
        oracle::FennelRepartition(g, 4, 1, *prior, 0.5, 4, nullptr).status();
    EXPECT_FALSE(fennel.ok());
    EXPECT_EQ(fennel.ToString(), fennel_ref.ToString());
  }
}

}  // namespace
}  // namespace gnnpart
