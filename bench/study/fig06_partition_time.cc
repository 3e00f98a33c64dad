// Reproduces paper Figure 6: wall-clock partitioning time of the edge
// partitioners for 4 and 32 partitions. Expected shape: Random/DBH/2PS-L
// barely depend on the partition count; HDRF's O(k)-per-edge scoring grows
// with k; HEP (in-memory NE) costs the most.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig06PartitionTime(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Edge partitioning time (seconds)", "paper Figure 6",
                     ctx);
  for (PartitionId k : {4u, 32u}) {
    std::cout << "\n--- " << k << " partitions ---\n";
    TablePrinter table(
        {"Graph", "Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100"});
    for (DatasetId id : AllDatasets()) {
      std::vector<std::string> row{DatasetCode(id)};
      for (EdgePartitionerId pid : AllEdgePartitioners()) {
        const EdgeRun& run =
            *bench::Unwrap(study.Edge(id, pid, k), "partition");
        row.push_back(bench::F(run.partitioning_seconds, 3));
      }
      table.AddRow(row);
    }
    bench::Emit(table, "fig06_partition_time_1");
  }
}

}  // namespace gnnpart::bench
