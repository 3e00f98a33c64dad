// Reproduces paper Figure 25: per-phase times of a 3-layer GAT vs
// GraphSage with feature size 512 and hidden dimension 64 on OR when
// scaling from 4 to 32 machines. Expected shape: the feature-fetching
// phase shrinks sharply with scale-out (it parallelizes well); GAT adds
// attention compute on top of the same data-loading profile.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig25GatSage(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Phase times GAT vs GraphSage (feat 512, hidden 64, "
                     "OR, Metis)",
                     "paper Figure 25", ctx);
  for (GnnArchitecture arch :
       {GnnArchitecture::kGat, GnnArchitecture::kGraphSage}) {
    std::cout << "\n--- " << ArchitectureName(arch) << " ---\n";
    TablePrinter table({"machines", "sample ms", "fetch ms", "fwd ms",
                        "bwd ms", "update ms", "epoch ms"});
    for (int machines : StudyMachineCounts()) {
      const DistDglEpochProfile& profile = *bench::Unwrap(
          study.Profile(DatasetId::kOrkut, VertexPartitionerId::kMetis,
                        static_cast<PartitionId>(machines), 3,
                        ctx.global_batch_size),
          "profile");
      GnnConfig config;
      config.arch = arch;
      config.num_layers = 3;
      config.feature_size = 512;
      config.hidden_dim = 64;
      config.num_classes = 16;
      ClusterSpec cluster = ctx.MakeCluster(machines);
      DistDglEpochReport r = SimulateDistDglEpoch(profile, config, cluster);
      table.AddRow(bench::PhaseRow(std::to_string(machines), r));
    }
    table.Print(std::cout);
  }
}

}  // namespace gnnpart::bench
