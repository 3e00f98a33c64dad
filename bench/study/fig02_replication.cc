// Reproduces paper Figure 2: replication factor for every combination of
// graph, edge partitioner and number of partitions. Expected shape: HEP100
// lowest everywhere, Random highest; RF grows with the partition count.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig02Replication(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Replication factor of edge partitioners",
                     "paper Figure 2", ctx);
  for (PartitionId k : {4u, 8u, 16u, 32u}) {
    std::cout << "\n--- " << k << " partitions ---\n";
    TablePrinter table(
        {"Graph", "Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100"});
    for (DatasetId id : AllDatasets()) {
      std::vector<std::string> row{DatasetCode(id)};
      for (EdgePartitionerId pid : AllEdgePartitioners()) {
        const EdgeRun& run =
            *bench::Unwrap(study.Edge(id, pid, k), "partition");
        row.push_back(bench::F(run.metrics.replication_factor));
      }
      table.AddRow(row);
    }
    bench::Emit(table, "fig02_replication_1");
  }
}

}  // namespace gnnpart::bench
