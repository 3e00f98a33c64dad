// Reproduces paper Figure 15: vertex partitioning time (the paper plots it
// on a log scale). Expected shape: KaHIP costs orders of magnitude more
// than the streaming partitioners; Metis sits in between; KaHIP's extra
// cost buys the lowest cut (Fig. 12).
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig15PartitionTime(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Vertex partitioning time (seconds)",
                     "paper Figure 15", ctx);
  for (PartitionId k : {4u, 32u}) {
    std::cout << "\n--- " << k << " partitions ---\n";
    TablePrinter table(
        {"Graph", "Random", "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP"});
    for (DatasetId id : AllDatasets()) {
      std::vector<std::string> row{DatasetCode(id)};
      for (VertexPartitionerId pid : AllVertexPartitioners()) {
        const VertexRun& run =
            *bench::Unwrap(study.Vertex(id, pid, k), "partition");
        row.push_back(bench::F(run.parts.partitioning_seconds, 3));
      }
      table.AddRow(row);
    }
    bench::Emit(table, "fig15_partition_time_1");
  }
}

}  // namespace gnnpart::bench
