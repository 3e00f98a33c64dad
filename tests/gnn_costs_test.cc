#include <gtest/gtest.h>

#include "gen/generators.h"
#include "gnn/costs.h"
#include "gnn/reference_net.h"

namespace gnnpart {
namespace {

GnnConfig BaseConfig(GnnArchitecture arch) {
  GnnConfig c;
  c.arch = arch;
  c.num_layers = 3;
  c.feature_size = 32;
  c.hidden_dim = 16;
  c.num_classes = 8;
  return c;
}

TEST(CostModelTest, LayerDimsFollowConfig) {
  GnnConfig c = BaseConfig(GnnArchitecture::kGraphSage);
  EXPECT_EQ(c.LayerInputDim(0), 32u);
  EXPECT_EQ(c.LayerOutputDim(0), 16u);
  EXPECT_EQ(c.LayerInputDim(1), 16u);
  EXPECT_EQ(c.LayerOutputDim(2), 8u);
}

TEST(CostModelTest, DefaultFanoutsMatchPaper) {
  EXPECT_EQ(GnnConfig::DefaultFanouts(2), (std::vector<size_t>{25, 20}));
  EXPECT_EQ(GnnConfig::DefaultFanouts(3), (std::vector<size_t>{15, 10, 5}));
  EXPECT_EQ(GnnConfig::DefaultFanouts(4),
            (std::vector<size_t>{10, 10, 5, 5}));
  EXPECT_EQ(GnnConfig::DefaultFanouts(5).size(), 5u);
}

TEST(CostModelTest, FlopsScaleWithWork) {
  GnnConfig c = BaseConfig(GnnArchitecture::kGraphSage);
  double base = ForwardFlops(c, 1000, 10000);
  EXPECT_GT(base, 0);
  EXPECT_GT(ForwardFlops(c, 2000, 10000), base);
  EXPECT_GT(ForwardFlops(c, 1000, 20000), base);
  EXPECT_DOUBLE_EQ(TrainingFlops(c, 1000, 10000), 3.0 * base);
}

TEST(CostModelTest, SageCostsTwiceGcnDense) {
  GnnConfig sage = BaseConfig(GnnArchitecture::kGraphSage);
  GnnConfig gcn = BaseConfig(GnnArchitecture::kGcn);
  LayerCost cs = ComputeLayerCost(sage, 1, 1000, 0);
  LayerCost cg = ComputeLayerCost(gcn, 1, 1000, 0);
  EXPECT_DOUBLE_EQ(cs.dense_flops, 2.0 * cg.dense_flops);
}

TEST(CostModelTest, GatChargesAttention) {
  GnnConfig gat = BaseConfig(GnnArchitecture::kGat);
  GnnConfig gcn = BaseConfig(GnnArchitecture::kGcn);
  LayerCost ca = ComputeLayerCost(gat, 1, 1000, 10000);
  LayerCost cg = ComputeLayerCost(gcn, 1, 1000, 10000);
  EXPECT_GT(ca.aggregation_flops, cg.aggregation_flops * 0.5);
  EXPECT_GT(ca.total_flops(), cg.total_flops());
}

TEST(CostModelTest, ActivationMemoryIncludesAllLayers) {
  GnnConfig c = BaseConfig(GnnArchitecture::kGraphSage);
  double mem = ActivationMemoryBytes(c, 100);
  // features 32 + hidden 16 + hidden 16 + classes 8 = 72 floats/vertex.
  EXPECT_DOUBLE_EQ(mem, 100.0 * 72 * 4);
}

TEST(CostModelTest, VertexStateBytesMatchesActivationPerVertex) {
  GnnConfig c = BaseConfig(GnnArchitecture::kGraphSage);
  EXPECT_DOUBLE_EQ(c.VertexStateBytes(), ActivationMemoryBytes(c, 1));
}

TEST(CostModelTest, ParameterBytesMatchReferenceImplementation) {
  // The analytical parameter-count formula must agree exactly with the
  // parameters the reference implementation actually allocates.
  for (GnnArchitecture arch : {GnnArchitecture::kGraphSage,
                               GnnArchitecture::kGcn, GnnArchitecture::kGat}) {
    GnnConfig c = BaseConfig(arch);
    ReferenceNet net(c, 9);
    EXPECT_DOUBLE_EQ(ModelParameterBytes(c),
                     static_cast<double>(net.ParameterCount()) * sizeof(float))
        << ArchitectureName(arch);
  }
}

TEST(CostModelTest, ArchitectureNames) {
  EXPECT_EQ(ArchitectureName(GnnArchitecture::kGraphSage), "GraphSage");
  EXPECT_EQ(ArchitectureName(GnnArchitecture::kGcn), "GCN");
  EXPECT_EQ(ArchitectureName(GnnArchitecture::kGat), "GAT");
}

TEST(ReferenceNetTest, LossDecreasesAllArchitectures) {
  RmatParams p;
  p.num_vertices = 300;
  p.num_edges = 1800;
  Result<Graph> g = GenerateRmat(p, 21);
  ASSERT_TRUE(g.ok());
  VertexSplit split = VertexSplit::MakeRandom(g->num_vertices(), 0.3, 0.1, 2);
  for (GnnArchitecture arch : {GnnArchitecture::kGraphSage,
                               GnnArchitecture::kGcn, GnnArchitecture::kGat}) {
    GnnConfig c;
    c.arch = arch;
    c.num_layers = 2;
    c.feature_size = 16;
    c.hidden_dim = 16;
    c.num_classes = 4;
    NodeClassificationTask task =
        MakeSyntheticTask(*g, c.feature_size, c.num_classes, 31);
    ReferenceNet net(c, 7);
    double first = 0, last = 0;
    for (int epoch = 0; epoch < 25; ++epoch) {
      Result<double> loss =
          net.TrainStep(*g, task.features, task.labels, split, 0.05f);
      ASSERT_TRUE(loss.ok()) << loss.status();
      if (epoch == 0) first = *loss;
      last = *loss;
    }
    EXPECT_LT(last, 0.7 * first) << ArchitectureName(arch);
  }
}

TEST(ReferenceNetTest, LearnsBetterThanChance) {
  RmatParams p;
  p.num_vertices = 400;
  p.num_edges = 2400;
  Result<Graph> g = GenerateRmat(p, 23);
  ASSERT_TRUE(g.ok());
  VertexSplit split = VertexSplit::MakeRandom(g->num_vertices(), 0.3, 0.1, 2);
  GnnConfig c;
  c.arch = GnnArchitecture::kGraphSage;
  c.num_layers = 2;
  c.feature_size = 16;
  c.hidden_dim = 24;
  c.num_classes = 4;
  NodeClassificationTask task =
      MakeSyntheticTask(*g, c.feature_size, c.num_classes, 31);
  ReferenceNet net(c, 7);
  for (int epoch = 0; epoch < 40; ++epoch) {
    ASSERT_TRUE(
        net.TrainStep(*g, task.features, task.labels, split, 0.05f).ok());
  }
  double acc = net.Evaluate(*g, task.features, task.labels,
                            split.test_vertices());
  EXPECT_GT(acc, 0.5);  // chance = 0.25 with 4 classes
}

TEST(ReferenceNetTest, RejectsMismatchedInputs) {
  GraphBuilder b(3, false);
  b.AddEdge(0, 1);
  Result<Graph> g = b.Build();
  ASSERT_TRUE(g.ok());
  GnnConfig c;
  c.num_layers = 2;
  c.feature_size = 4;
  c.hidden_dim = 4;
  c.num_classes = 2;
  ReferenceNet net(c, 1);
  VertexSplit split = VertexSplit::MakeRandom(3, 0.5, 0.2, 1);
  Matrix wrong_features(2, 4);
  std::vector<int32_t> labels{0, 1, 0};
  EXPECT_FALSE(net.TrainStep(*g, wrong_features, labels, split, 0.1f).ok());
  Matrix features(3, 4);
  std::vector<int32_t> wrong_labels{0};
  EXPECT_FALSE(net.TrainStep(*g, features, wrong_labels, split, 0.1f).ok());
}

TEST(ReferenceNetTest, ApplyGradientsStepsAndClearsGrads) {
  // Plain SGD on every parameter of every layer: p -= lr * g, then g = 0.
  ReferenceNet net(BaseConfig(GnnArchitecture::kGat), 1);
  auto params = net.ParamsAndGrads();
  ASSERT_FALSE(params.empty());
  std::vector<Matrix> expected;
  for (auto [param, grad] : params) {
    for (size_t i = 0; i < grad->data().size(); ++i) {
      grad->data()[i] = 0.5f * static_cast<float>(static_cast<int>(i % 3) - 1);
    }
    expected.push_back(*param);
    for (size_t i = 0; i < param->data().size(); ++i) {
      expected.back().data()[i] -= 0.1f * grad->data()[i];
    }
  }
  params[0].first->data()[0] = 1.0f;
  params[0].second->data()[0] = 0.5f;
  params[0].first->data()[1] = 2.0f;
  params[0].second->data()[1] = -1.0f;
  expected[0].data()[0] = 0.95f;
  expected[0].data()[1] = 2.1f;
  net.ApplyGradients(0.1f);
  for (size_t j = 0; j < params.size(); ++j) {
    auto [param, grad] = params[j];
    for (size_t i = 0; i < param->data().size(); ++i) {
      EXPECT_FLOAT_EQ(param->data()[i], expected[j].data()[i]);
      EXPECT_EQ(grad->data()[i], 0.0f);
    }
  }
}

TEST(SyntheticTaskTest, LabelsWithinRangeAndFeaturesMatch) {
  RmatParams p;
  p.num_vertices = 200;
  p.num_edges = 1000;
  Result<Graph> g = GenerateRmat(p, 29);
  ASSERT_TRUE(g.ok());
  NodeClassificationTask task = MakeSyntheticTask(*g, 8, 5, 3);
  EXPECT_EQ(task.features.rows(), g->num_vertices());
  EXPECT_EQ(task.features.cols(), 8u);
  ASSERT_EQ(task.labels.size(), g->num_vertices());
  for (int32_t label : task.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 5);
  }
}

TEST(SyntheticTaskTest, NeighborsShareLabelsMoreThanChance) {
  RmatParams p;
  p.num_vertices = 500;
  p.num_edges = 3000;
  Result<Graph> g = GenerateRmat(p, 33);
  ASSERT_TRUE(g.ok());
  NodeClassificationTask task = MakeSyntheticTask(*g, 8, 4, 3);
  size_t same = 0;
  for (const Edge& e : g->edges()) {
    if (task.labels[e.src] == task.labels[e.dst]) ++same;
  }
  double homophily = static_cast<double>(same) / g->num_edges();
  EXPECT_GT(homophily, 0.4);  // chance would be 0.25
}

}  // namespace
}  // namespace gnnpart
