// Reproduces paper Figure 4: vertex balance of the edge partitioners on 4
// and 32 machines. Expected shape: 2PS-L / HEP10 / HEP100 show significant
// vertex imbalance (they only balance edges); Random / DBH / HDRF are
// nearly perfectly balanced.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig04VertexBalance(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Vertex balance of edge partitioners",
                     "paper Figure 4", ctx);
  for (PartitionId k : {4u, 32u}) {
    std::cout << "\n--- " << k << " partitions ---\n";
    TablePrinter table(
        {"Graph", "Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100"});
    for (DatasetId id : AllDatasets()) {
      std::vector<std::string> row{DatasetCode(id)};
      for (EdgePartitionerId pid : AllEdgePartitioners()) {
        const EdgeRun& run =
            *bench::Unwrap(study.Edge(id, pid, k), "partition");
        row.push_back(bench::F(run.metrics.vertex_balance));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
}

}  // namespace gnnpart::bench
