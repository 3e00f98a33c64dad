// Reproduces paper Table 1: the dataset inventory, with the structural
// statistics that drive partitioner behaviour (degree skew is what
// separates the road network from the power-law graphs).
#include "bench/study/tables.h"
#include "graph/degree_stats.h"

namespace gnnpart::bench {

void Datasets(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Dataset inventory (synthetic substitutes)",
                     "paper Table 1", ctx);
  TablePrinter table({"Graph", "Type", "Dir.", "|E|", "|V|", "mean deg",
                      "max deg", "skew", "top1% share"});
  for (DatasetId id : AllDatasets()) {
    const DatasetBundle& bundle =
        *bench::Unwrap(study.Dataset(id), "dataset");
    DegreeStats s = ComputeDegreeStats(bundle.graph);
    table.AddRow({DatasetCode(id), DatasetCategory(id),
                  DatasetDirected(id) ? "yes" : "no",
                  std::to_string(s.num_edges), std::to_string(s.num_vertices),
                  bench::F(s.mean_degree, 1), std::to_string(s.max_degree),
                  bench::F(s.skew), bench::F(s.top1pct_degree_share)});
  }
  table.Print(std::cout);
}

}  // namespace gnnpart::bench
