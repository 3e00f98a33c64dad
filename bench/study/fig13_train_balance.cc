// Reproduces paper Figure 13: training-vertex balance across 8 partitions.
// Expected shape: near-1 for most partitioners (training vertices are
// random, so vertex balance implies training balance); ByteGNN balances
// them explicitly.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig13TrainBalance(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Training-vertex balance (8 partitions)",
                     "paper Figure 13", ctx);
  const PartitionId k = 8;
  TablePrinter table(
      {"Graph", "Random", "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP"});
  for (DatasetId id : AllDatasets()) {
    std::vector<std::string> row{DatasetCode(id)};
    for (VertexPartitionerId pid : AllVertexPartitioners()) {
      const VertexRun& run =
          *bench::Unwrap(study.Vertex(id, pid, k), "partition");
      row.push_back(bench::F(run.metrics.train_vertex_balance, 3));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
}

}  // namespace gnnpart::bench
