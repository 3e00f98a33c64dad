// Reproduces paper Figure 22: per-phase times of a 3-layer GraphSage with
// feature size 64 on 4 machines on OR, for hidden dimensions 16/64/512.
// Expected shape: sampling and fetching stay constant; forward/backward
// grow with the hidden dimension, diluting partitioner differences.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig22PhaseHidden(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Phase times by hidden dimension (3-layer GraphSage, "
                     "feat 64, 4 machines, OR)",
                     "paper Figure 22", ctx);
  const PartitionId k = 4;
  ClusterSpec cluster = ctx.MakeCluster(k);

  TablePrinter table({"partitioner/hidden", "sample ms", "fetch ms", "fwd ms",
                      "bwd ms", "update ms", "epoch ms"});
  for (VertexPartitionerId pid :
       {VertexPartitionerId::kRandom, VertexPartitionerId::kMetis,
        VertexPartitionerId::kKahip}) {
    const DistDglEpochProfile& profile = *bench::Unwrap(
        study.Profile(DatasetId::kOrkut, pid, k, 3, ctx.global_batch_size),
        "profile");
    for (size_t hidden : {16u, 64u, 512u}) {
      GnnConfig config;
      config.arch = GnnArchitecture::kGraphSage;
      config.num_layers = 3;
      config.feature_size = 64;
      config.hidden_dim = hidden;
      config.num_classes = 16;
      obs::EventLog events;
      DistDglEpochReport r =
          SimulateDistDglEpoch(profile, config, cluster, nullptr, nullptr,
                               bench::MaybeEvents(&events));
      bench::MaybeWriteTrace(events, MakeVertexPartitioner(pid)->name() + "_h" +
                                      std::to_string(hidden));
      table.AddRow(bench::PhaseRow(MakeVertexPartitioner(pid)->name() + "/h" +
                                       std::to_string(hidden),
                                   r));
    }
  }
  bench::Emit(table, "fig22_phase_hidden_1");
}

}  // namespace gnnpart::bench
