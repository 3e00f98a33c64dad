// Reproduces paper Figure 22: per-phase times of a 3-layer GraphSage with
// feature size 64 on 4 machines on OR, for hidden dimensions 16/64/512.
// Expected shape: sampling and fetching stay constant; forward/backward
// grow with the hidden dimension, diluting partitioner differences.
#include "bench/bench_util.h"

using namespace gnnpart;

int main(int argc, char** argv) {
  ExperimentContext ctx = bench::DefaultContext(argc, argv);
  bench::PrintBanner("Phase times by hidden dimension (3-layer GraphSage, "
                     "feat 64, 4 machines, OR)",
                     "paper Figure 22", ctx);
  const PartitionId k = 4;
  ClusterSpec cluster = ctx.MakeCluster(k);
  DatasetBundle bundle =
      bench::Unwrap(LoadDataset(ctx, DatasetId::kOrkut), "dataset");

  TablePrinter table({"partitioner/hidden", "sample ms", "fetch ms", "fwd ms",
                      "bwd ms", "update ms", "epoch ms"});
  for (VertexPartitionerId pid :
       {VertexPartitionerId::kRandom, VertexPartitionerId::kMetis,
        VertexPartitionerId::kKahip}) {
    DistDglEpochProfile profile = bench::Unwrap(
        ProfileWithCache(ctx, DatasetId::kOrkut, bundle.graph, bundle.split,
                         pid, k, 3, ctx.global_batch_size),
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
  return 0;
}
