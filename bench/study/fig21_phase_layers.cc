// Reproduces paper Figure 21: per-phase times of GraphSage with feature
// size and hidden dimension 64 on 4 machines on OR, for 2/3/4 layers.
// Expected shape: every phase grows with the layer count; for 3-4 layers
// most of the partitioner differences sit in sampling + fetching.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig21PhaseLayers(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Phase times by layer count (GraphSage, feat=hidden=64, "
                     "4 machines, OR)",
                     "paper Figure 21", ctx);
  const PartitionId k = 4;
  ClusterSpec cluster = ctx.MakeCluster(k);

  TablePrinter table({"partitioner/L", "sample ms", "fetch ms", "fwd ms",
                      "bwd ms", "update ms", "epoch ms"});
  for (VertexPartitionerId pid :
       {VertexPartitionerId::kRandom, VertexPartitionerId::kMetis,
        VertexPartitionerId::kKahip}) {
    for (int layers : {2, 3, 4}) {
      const DistDglEpochProfile& profile = *bench::Unwrap(
          study.Profile(DatasetId::kOrkut, pid, k, layers,
                        ctx.global_batch_size),
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
}

}  // namespace gnnpart::bench
