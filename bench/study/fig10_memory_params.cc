// Reproduces paper Figure 10: DistGNN memory footprint in % of Random on OR
// with 8 machines, as one hyper-parameter varies. Expected shape: larger
// feature size and larger hidden dimension both make partitioning more
// effective (lower %); more layers help when hidden is large.
#include "bench/study/tables.h"

namespace gnnpart::bench {

namespace {

// Mean memory % of Random over all grid entries matching a predicate.
template <typename Pred>
double MeanPercent(const DistGnnGridResult& grid, const std::string& name,
                   Pred pred) {
  const auto& random = grid.reports.at("Random");
  const auto& mine = grid.reports.at(name);
  std::vector<double> values;
  for (size_t i = 0; i < grid.grid.size(); ++i) {
    if (!pred(grid.grid[i])) continue;
    values.push_back(100.0 * mine[i].mean_memory_bytes /
                     random[i].mean_memory_bytes);
  }
  return Mean(values);
}

}  // namespace

void Fig10MemoryParams(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("Memory in % of Random by hyper-parameter (OR, 8 "
                     "machines)",
                     "paper Figure 10", ctx);
  const DistGnnGridResult& grid =
      *bench::Unwrap(study.DistGnnGrid(DatasetId::kOrkut, 8), "grid");

  std::cout << "\n(a) by feature size\n";
  TablePrinter ft({"Partitioner", "feat=16", "feat=64", "feat=512"});
  for (const std::string& name : grid.partitioners) {
    if (name == "Random") continue;
    std::vector<std::string> row{name};
    for (size_t feat : {16u, 64u, 512u}) {
      row.push_back(bench::F(
          MeanPercent(grid, name,
                      [&](const GnnConfig& c) {
                        return c.feature_size == feat;
                      }),
          1));
    }
    ft.AddRow(row);
  }
  bench::Emit(ft, "fig10_memory_params_1");

  std::cout << "\n(b) by hidden dimension\n";
  TablePrinter ht({"Partitioner", "hidden=16", "hidden=64", "hidden=512"});
  for (const std::string& name : grid.partitioners) {
    if (name == "Random") continue;
    std::vector<std::string> row{name};
    for (size_t hidden : {16u, 64u, 512u}) {
      row.push_back(bench::F(
          MeanPercent(grid, name,
                      [&](const GnnConfig& c) {
                        return c.hidden_dim == hidden;
                      }),
          1));
    }
    ht.AddRow(row);
  }
  bench::Emit(ht, "fig10_memory_params_2");

  std::cout << "\n(c) by number of layers (hidden=512, feature=16: the "
               "regime where layers matter most)\n";
  TablePrinter lt({"Partitioner", "L=2", "L=3", "L=4"});
  for (const std::string& name : grid.partitioners) {
    if (name == "Random") continue;
    std::vector<std::string> row{name};
    for (int layers : {2, 3, 4}) {
      row.push_back(bench::F(
          MeanPercent(grid, name,
                      [&](const GnnConfig& c) {
                        return c.num_layers == layers &&
                               c.hidden_dim == 512 && c.feature_size == 16;
                      }),
          1));
    }
    lt.AddRow(row);
  }
  bench::Emit(lt, "fig10_memory_params_3");
}

}  // namespace gnnpart::bench
