// Reproduces paper Figure 21: per-phase times of GraphSage with feature
// size and hidden dimension 64 on 4 machines on OR, for 2/3/4 layers.
// Expected shape: every phase grows with the layer count; for 3-4 layers
// most of the partitioner differences sit in sampling + fetching.
#include "bench/bench_util.h"

using namespace gnnpart;

int main(int argc, char** argv) {
  ExperimentContext ctx = bench::DefaultContext(argc, argv);
  bench::PrintBanner("Phase times by layer count (GraphSage, feat=hidden=64, "
                     "4 machines, OR)",
                     "paper Figure 21", ctx);
  const PartitionId k = 4;
  ClusterSpec cluster = ctx.MakeCluster(k);
  DatasetBundle bundle =
      bench::Unwrap(LoadDataset(ctx, DatasetId::kOrkut), "dataset");

  TablePrinter table({"partitioner/L", "sample ms", "fetch ms", "fwd ms",
                      "bwd ms", "update ms", "epoch ms"});
  for (VertexPartitionerId pid :
       {VertexPartitionerId::kRandom, VertexPartitionerId::kMetis,
        VertexPartitionerId::kKahip}) {
    for (int layers : {2, 3, 4}) {
      DistDglEpochProfile profile = bench::Unwrap(
          ProfileWithCache(ctx, DatasetId::kOrkut, bundle.graph, bundle.split,
                           pid, k, layers, ctx.global_batch_size),
          "profile");
      GnnConfig config;
      config.arch = GnnArchitecture::kGraphSage;
      config.num_layers = layers;
      config.feature_size = 64;
      config.hidden_dim = 64;
      config.num_classes = 16;
      obs::EventLog events;
      DistDglEpochReport r =
          SimulateDistDglEpoch(profile, config, cluster, nullptr, nullptr,
                               bench::MaybeEvents(&events));
      bench::MaybeWriteTrace(events, MakeVertexPartitioner(pid)->name() + "_L" +
                                      std::to_string(layers));
      table.AddRow(bench::PhaseRow(MakeVertexPartitioner(pid)->name() + "/L" +
                                       std::to_string(layers),
                                   r));
    }
  }
  bench::Emit(table, "fig21_phase_layers_1");
  return 0;
}
