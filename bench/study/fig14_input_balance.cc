// Reproduces paper Figure 14: balance of the mini-batches in terms of input
// vertices (GraphSage, 3 layers). Expected shape: a noticeable imbalance
// for all partitioners that grows with the number of partitions — balanced
// training vertices do not imply balanced computation graphs.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig14InputBalance(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Input-vertex balance of mini-batches (GraphSage, 3 "
                     "layers)",
                     "paper Figure 14", ctx);
  for (PartitionId k : {8u, 32u}) {
    std::cout << "\n--- " << k << " partitions ---\n";
    TablePrinter table(
        {"Graph", "Random", "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP"});
    for (DatasetId id : AllDatasets()) {
      std::vector<std::string> row{DatasetCode(id)};
      for (VertexPartitionerId pid : AllVertexPartitioners()) {
        const DistDglEpochProfile& profile = *bench::Unwrap(
            study.Profile(id, pid, k, 3, ctx.global_batch_size), "profile");
        row.push_back(bench::F(profile.InputVertexBalance(), 3));
      }
      table.AddRow(row);
    }
    bench::Emit(table, "fig14_input_balance_1");
  }
}

}  // namespace gnnpart::bench
