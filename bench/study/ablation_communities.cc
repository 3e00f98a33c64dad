// Ablation (DESIGN.md, starred): why the dataset substitutes need planted
// communities. Sweeping the DC-SBM mixing parameter from 0 (pure
// configuration-model power law, R-MAT-like) to 0.9 shows that without
// community structure no vertex partitioner can beat Random meaningfully —
// exactly the failure mode a pure R-MAT substitute would have baked into
// every DistDGL experiment.
#include "bench/study/tables.h"
#include "gen/generators.h"

namespace gnnpart::bench {

void AblationCommunities(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Ablation: community mixing vs partitioner payoff "
                     "(DC-SBM, 8 partitions)",
                     "DESIGN.md community-structure decision", ctx);
  GnnConfig config;
  config.arch = GnnArchitecture::kGraphSage;
  config.num_layers = 3;
  config.feature_size = 512;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(3);
  const PartitionId k = 8;
  ClusterSpec cluster = ctx.MakeCluster(k);

  TablePrinter table({"mixing", "Metis cut", "Random cut",
                      "remote % of Random", "DistDGL speedup (Metis)"});
  for (double mixing : {0.0, 0.3, 0.5, 0.7, 0.8, 0.9}) {
    PowerLawCommunityParams p;
    p.num_vertices = 12000;
    p.num_edges = 120000;
    p.skew = 0.7;
    p.num_communities = 48;
    p.mixing = mixing;
    Graph graph =
        bench::Unwrap(GeneratePowerLawCommunity(p, ctx.seed), "generate");
    VertexSplit split =
        VertexSplit::MakeRandom(graph.num_vertices(), 0.1, 0.1, ctx.seed);

    auto run = [&](VertexPartitionerId pid) {
      auto partitioner = MakeVertexPartitioner(pid);
      auto parts = bench::Unwrap(
          partitioner->Partition(graph, split, k, ctx.seed), "partition");
      RecordAssignmentDigest("study/ablation/communities/" +
                                 bench::F(mixing, 1) + "/" +
                                 partitioner->name(),
                             parts.assignment);
      auto profile = bench::Unwrap(
          ProfileDistDglEpoch(graph, parts, split, config.fanouts,
                              ctx.global_batch_size, ctx.seed),
          "profile");
      return std::make_tuple(
          ComputeVertexPartitionMetrics(graph, parts, split).edge_cut_ratio,
          profile.TotalRemoteInputVertices(),
          SimulateDistDglEpoch(profile, config, cluster).epoch_seconds);
    };
    auto [cut_m, remote_m, t_m] = run(VertexPartitionerId::kMetis);
    auto [cut_r, remote_r, t_r] = run(VertexPartitionerId::kRandom);
    table.AddRow({bench::F(mixing, 1), bench::F(cut_m, 3),
                  bench::F(cut_r, 3),
                  bench::F(100.0 * static_cast<double>(remote_m) /
                               static_cast<double>(remote_r),
                           1),
                  bench::F(t_r / t_m)});
  }
  table.Print(std::cout);
  std::cout << "\nReading: at mixing 0 (no communities) Metis's cut sits "
               "near Random's and the speedup vanishes; the real graphs'\n"
               "community structure is what gives the paper's partitioners "
               "their edge, so the substitutes must plant it.\n";
}

}  // namespace gnnpart::bench
