// Reproduces paper Figure 12: edge-cut ratio for every combination of
// graph, vertex partitioner and number of partitions. Expected shape:
// KaHIP lowest in most cases, Random highest; DI (road network) gets
// near-zero cuts from the multilevel partitioners; more partitions raise
// the cut.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig12Edgecut(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Edge-cut ratio of vertex partitioners",
                     "paper Figure 12", ctx);
  for (PartitionId k : {4u, 8u, 16u, 32u}) {
    std::cout << "\n--- " << k << " partitions ---\n";
    TablePrinter table(
        {"Graph", "Random", "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP"});
    for (DatasetId id : AllDatasets()) {
      std::vector<std::string> row{DatasetCode(id)};
      for (VertexPartitionerId pid : AllVertexPartitioners()) {
        const VertexRun& run =
            *bench::Unwrap(study.Vertex(id, pid, k), "partition");
        row.push_back(bench::F(run.metrics.edge_cut_ratio, 3));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
}

}  // namespace gnnpart::bench
