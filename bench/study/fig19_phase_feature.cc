// Reproduces paper Figure 19: per-phase times of a 3-layer GraphSage with
// hidden dimension 64 on 4 machines, for different feature sizes, on EU
// and on the road network DI. Expected shape: on EU, fetching overtakes
// sampling at feature size 512; on DI, sampling always dominates fetching
// (tiny mini-batches, low mean degree).
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig19PhaseFeature(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Phase times by feature size (3-layer GraphSage, "
                     "hidden 64, 4 machines)",
                     "paper Figure 19", ctx);
  const PartitionId k = 4;
  ClusterSpec cluster = ctx.MakeCluster(k);

  for (DatasetId id : {DatasetId::kEu, DatasetId::kDimacsUsa}) {
    std::cout << "\n--- " << DatasetCode(id) << " ---\n";
    TablePrinter table({"partitioner/feat", "sample ms", "fetch ms",
                        "fwd ms", "bwd ms", "update ms", "epoch ms"});
    for (VertexPartitionerId pid :
         {VertexPartitionerId::kRandom, VertexPartitionerId::kMetis,
          VertexPartitionerId::kKahip}) {
      const DistDglEpochProfile& profile = *bench::Unwrap(
          study.Profile(id, pid, k, 3, ctx.global_batch_size), "profile");
      for (size_t feat : {16u, 64u, 512u}) {
        GnnConfig config;
        config.arch = GnnArchitecture::kGraphSage;
        config.num_layers = 3;
        config.feature_size = feat;
        config.hidden_dim = 64;
        config.num_classes = 16;
        obs::EventLog events;
        DistDglEpochReport r =
            SimulateDistDglEpoch(profile, config, cluster, nullptr, nullptr,
                                 bench::MaybeEvents(&events));
        bench::MaybeWriteTrace(events, DatasetCode(id) + "_" +
                                        MakeVertexPartitioner(pid)->name() +
                                        "_f" + std::to_string(feat));
        table.AddRow(bench::PhaseRow(MakeVertexPartitioner(pid)->name() +
                                         "/" + std::to_string(feat),
                                     r));
      }
    }
    bench::Emit(table, "fig19_phase_feature_1");
  }
}

}  // namespace gnnpart::bench
