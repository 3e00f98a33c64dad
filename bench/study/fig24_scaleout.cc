// Reproduces paper Figure 24: DistDGL GraphSage effectiveness when scaling
// from 4 to 32 machines — (a) mean speedup, (b) remote vertices in % of
// Random, (c) edge-cut in % of Random. Expected shape: on the power-law
// graphs effectiveness slightly decreases with scale-out (all three
// metrics drift toward Random); on DI it increases.
#include "bench/study/tables.h"

namespace gnnpart::bench {

void Fig24Scaleout(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner("DistDGL scale-out effectiveness (GraphSage)",
                     "paper Figure 24", ctx);

  // Power-law graphs averaged; DI reported separately (the paper notes the
  // opposite trend there).
  for (bool road_only : {false, true}) {
    std::cout << (road_only ? "\n=== DI (road) ===\n"
                            : "\n=== power-law graphs (mean) ===\n");
    std::map<std::string, std::map<int, std::vector<double>>> speed, remote,
        cut;
    std::vector<std::string> names;
    for (int machines : StudyMachineCounts()) {
      for (DatasetId id : AllDatasets()) {
        if ((id == DatasetId::kDimacsUsa) != road_only) continue;
        const DistDglGridResult& grid = *bench::Unwrap(
            study.DistDglGrid(id, static_cast<PartitionId>(machines),
                              GnnArchitecture::kGraphSage),
            "grid");
        if (names.empty()) names = grid.partitioners;
        double cut_random = grid.metrics.at("Random").edge_cut_ratio;
        // Remote vertices summed over the 3-layer profile.
        double remote_random = static_cast<double>(
            grid.ProfileFor("Random", 3).TotalRemoteInputVertices());
        for (const std::string& name : grid.partitioners) {
          if (name == "Random") continue;
          speed[name][machines].push_back(Mean(grid.SpeedupsVsRandom(name)));
          remote[name][machines].push_back(
              100.0 *
              static_cast<double>(
                  grid.ProfileFor(name, 3).TotalRemoteInputVertices()) /
              std::max(1.0, remote_random));
          cut[name][machines].push_back(
              100.0 * grid.metrics.at(name).edge_cut_ratio /
              std::max(1e-9, cut_random));
        }
      }
    }
    auto print_section =
        [&](const std::string& title,
            std::map<std::string, std::map<int, std::vector<double>>>& data,
            int prec) {
          std::cout << "\n" << title << "\n";
          TablePrinter table({"Partitioner", "4", "8", "16", "32"});
          for (const std::string& name : names) {
            if (name == "Random") continue;
            std::vector<std::string> row{name};
            for (int machines : StudyMachineCounts()) {
              row.push_back(bench::F(Mean(data[name][machines]), prec));
            }
            table.AddRow(row);
          }
          table.Print(std::cout);
        };
    print_section("(a) mean speedup vs Random", speed, 2);
    print_section("(b) remote vertices in % of Random", remote, 1);
    print_section("(c) edge-cut in % of Random", cut, 1);
  }
}

}  // namespace gnnpart::bench
