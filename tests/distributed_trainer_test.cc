#include <gtest/gtest.h>

#include "gen/generators.h"
#include "partition/vertex/registry.h"
#include "sim/distributed_trainer.h"

namespace gnnpart {
namespace {

struct Fixture {
  Graph graph;
  VertexSplit split;
  NodeClassificationTask task;
  VertexPartitioning parts;
};

Fixture TrainFixture(VertexPartitionerId pid = VertexPartitionerId::kMetis,
                     PartitionId k = 4) {
  PowerLawCommunityParams p;
  p.num_vertices = 800;
  p.num_edges = 6000;
  p.num_communities = 10;
  p.mixing = 0.85;
  Result<Graph> g = GeneratePowerLawCommunity(p, 17);
  EXPECT_TRUE(g.ok());
  Fixture f{std::move(g).value(), {}, {}, {}};
  f.split = VertexSplit::MakeRandom(f.graph.num_vertices(), 0.4, 0.1, 17);
  f.task = MakeSyntheticTask(f.graph, 16, 4, 17);
  auto parts = MakeVertexPartitioner(pid)->Partition(f.graph, f.split, k, 17);
  EXPECT_TRUE(parts.ok());
  f.parts = std::move(parts).value();
  return f;
}

DataParallelTrainer::Options BaseOptions() {
  DataParallelTrainer::Options options;
  options.gnn.arch = GnnArchitecture::kGraphSage;
  options.gnn.num_layers = 2;
  options.gnn.feature_size = 16;
  options.gnn.hidden_dim = 16;
  options.gnn.num_classes = 4;
  options.gnn.fanouts = {10, 10};
  options.global_batch_size = 64;
  options.learning_rate = 0.1f;
  options.seed = 5;
  return options;
}

TEST(DataParallelTrainerTest, RejectsBadInputs) {
  Fixture f = TrainFixture();
  DataParallelTrainer::Options options = BaseOptions();
  Matrix wrong(3, 16);
  EXPECT_FALSE(DataParallelTrainer::Create(f.graph, wrong, f.task.labels,
                                           f.split, f.parts, options)
                   .ok());
  options.gnn.fanouts = {10};  // wrong arity
  EXPECT_FALSE(DataParallelTrainer::Create(f.graph, f.task.features,
                                           f.task.labels, f.split, f.parts,
                                           options)
                   .ok());
  options = BaseOptions();
  options.global_batch_size = 0;
  EXPECT_FALSE(DataParallelTrainer::Create(f.graph, f.task.features,
                                           f.task.labels, f.split, f.parts,
                                           options)
                   .ok());
}

TEST(DataParallelTrainerTest, LossDecreasesAndLearns) {
  Fixture f = TrainFixture();
  auto trainer = DataParallelTrainer::Create(
      f.graph, f.task.features, f.task.labels, f.split, f.parts,
      BaseOptions());
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  double first = 0, last = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    Result<double> loss = trainer->RunEpoch();
    ASSERT_TRUE(loss.ok()) << loss.status();
    if (epoch == 0) first = *loss;
    last = *loss;
  }
  EXPECT_LT(last, 0.8 * first);
  double acc = trainer->Evaluate(f.split.test_vertices());
  EXPECT_GT(acc, 0.5);  // chance = 0.25
}

TEST(DataParallelTrainerTest, PartitionerChoiceChangesTrafficNotLearning) {
  // The study's implicit premise, verified with real training: Metis
  // fetches fewer remote features than Random, yet both learn the task.
  double acc_random = 0, acc_metis = 0;
  uint64_t remote_random = 0, remote_metis = 0;
  for (auto pid :
       {VertexPartitionerId::kRandom, VertexPartitionerId::kMetis}) {
    Fixture f = TrainFixture(pid);
    auto trainer = DataParallelTrainer::Create(
        f.graph, f.task.features, f.task.labels, f.split, f.parts,
        BaseOptions());
    ASSERT_TRUE(trainer.ok());
    for (int epoch = 0; epoch < 10; ++epoch) {
      ASSERT_TRUE(trainer->RunEpoch().ok());
    }
    if (pid == VertexPartitionerId::kRandom) {
      acc_random = trainer->Evaluate(f.split.test_vertices());
      remote_random = trainer->remote_feature_fetches();
    } else {
      acc_metis = trainer->Evaluate(f.split.test_vertices());
      remote_metis = trainer->remote_feature_fetches();
    }
  }
  EXPECT_LT(remote_metis, remote_random);
  EXPECT_GT(acc_random, 0.5);
  EXPECT_GT(acc_metis, 0.5);
}

TEST(DataParallelTrainerTest, DeterministicInSeed) {
  Fixture f = TrainFixture();
  auto t1 = DataParallelTrainer::Create(f.graph, f.task.features,
                                        f.task.labels, f.split, f.parts,
                                        BaseOptions());
  auto t2 = DataParallelTrainer::Create(f.graph, f.task.features,
                                        f.task.labels, f.split, f.parts,
                                        BaseOptions());
  ASSERT_TRUE(t1.ok() && t2.ok());
  Result<double> l1 = t1->RunEpoch();
  Result<double> l2 = t2->RunEpoch();
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_DOUBLE_EQ(*l1, *l2);
  EXPECT_EQ(t1->remote_feature_fetches(), t2->remote_feature_fetches());
}

TEST(DataParallelTrainerTest, StepsPerEpochMatchesBatchMath) {
  Fixture f = TrainFixture();
  auto trainer = DataParallelTrainer::Create(
      f.graph, f.task.features, f.task.labels, f.split, f.parts,
      BaseOptions());
  ASSERT_TRUE(trainer.ok());
  size_t expected =
      (f.split.train_vertices().size() + 63) / 64;  // GBS = 64
  EXPECT_EQ(trainer->steps_per_epoch(), expected);
}

}  // namespace
}  // namespace gnnpart
