// Extension study (beyond the paper's Table 2): where do PowerGraph's
// Greedy, the 2-D Grid vertex-cut, Fennel and restreaming LDG land
// relative to the paper's line-up? The paper's conclusions predict Greedy
// between DBH and HDRF, Grid between Random and DBH (its RF is bounded by
// r+c-1, not by structure), Fennel in LDG's band and ReLDG between LDG and
// the in-memory partitioners — this bench verifies all four placements.
// Every run goes through the Study memo, so each one has a digest row and
// the k=16 runs shared with Figs. 2 and 12 are computed once.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void ExtensionPartitioners(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Extension partitioners vs the paper line-up",
                     "extension of paper Table 2 / Figs. 2 and 12", ctx);
  const PartitionId k = 16;

  std::cout << "\nEdge partitioners: replication factor (k=16)\n";
  TablePrinter et({"Graph", "Random", "Grid", "DBH", "Greedy", "HDRF",
                   "HEP100"});
  for (DatasetId id : AllDatasets()) {
    std::vector<std::string> row{DatasetCode(id)};
    for (EdgePartitionerId pid :
         {EdgePartitionerId::kRandom, EdgePartitionerId::kGrid,
          EdgePartitionerId::kDbh, EdgePartitionerId::kGreedy,
          EdgePartitionerId::kHdrf, EdgePartitionerId::kHep100}) {
      const EdgeRun& run =
          *bench::Unwrap(study.Edge(id, pid, k), "partition");
      row.push_back(bench::F(run.metrics.replication_factor));
    }
    et.AddRow(row);
  }
  et.Print(std::cout);

  std::cout << "\nVertex partitioners: edge-cut ratio (k=16)\n";
  TablePrinter vt({"Graph", "Random", "LDG", "Fennel", "ReLDG", "Spinner",
                   "Metis"});
  for (DatasetId id : AllDatasets()) {
    std::vector<std::string> row{DatasetCode(id)};
    for (VertexPartitionerId pid :
         {VertexPartitionerId::kRandom, VertexPartitionerId::kLdg,
          VertexPartitionerId::kFennel, VertexPartitionerId::kReldg,
          VertexPartitionerId::kSpinner, VertexPartitionerId::kMetis}) {
      const VertexRun& run =
          *bench::Unwrap(study.Vertex(id, pid, k), "partition");
      row.push_back(bench::F(run.metrics.edge_cut_ratio, 3));
    }
    vt.AddRow(row);
  }
  vt.Print(std::cout);
}

}  // namespace gnnpart::bench
