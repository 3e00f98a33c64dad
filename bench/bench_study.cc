// bench_study: renders every paper table and figure, plus the ablations
// and extension figures, from one process (EXPERIMENTS.md).
//
//   bench_study [--threads N] [--metrics-out FILE] [--trace-out FILE]
//               [TABLE...]
//
// With no TABLE it runs every table in the order below, one after the
// other, so partitioning times are measured with nothing else running.
// Each table's wall time is recorded as the det:false timer
// time/table/<name>. An unknown TABLE exits 2 and lists the valid names.
#include <iostream>
#include <string>
#include <vector>

#include "bench/study/tables.h"

using namespace gnnpart;

namespace {

struct Table {
  const char* name;
  void (*run)(Study&);
};

constexpr Table kTables[] = {
    {"ablation_cluster", bench::AblationCluster},
    {"ablation_communities", bench::AblationCommunities},
    {"ablation_hdrf_lambda", bench::AblationHdrfLambda},
    {"ablation_hep_tau", bench::AblationHepTau},
    {"ablation_multilevel", bench::AblationMultilevel},
    {"datasets", bench::Datasets},
    {"extension_partitioners", bench::ExtensionPartitioners},
    {"fig02", bench::Fig02Replication},
    {"fig03", bench::Fig03RfVsNetwork},
    {"fig04", bench::Fig04VertexBalance},
    {"fig05", bench::Fig05MemoryBalance},
    {"fig06", bench::Fig06PartitionTime},
    {"fig07", bench::Fig07SpeedupDist},
    {"fig08", bench::Fig08RfVsSpeedup},
    {"fig09", bench::Fig09MemoryDist},
    {"fig10", bench::Fig10MemoryParams},
    {"fig11", bench::Fig11Scaleout},
    {"fig12", bench::Fig12Edgecut},
    {"fig13", bench::Fig13TrainBalance},
    {"fig14", bench::Fig14InputBalance},
    {"fig15", bench::Fig15PartitionTime},
    {"fig16", bench::Fig16SpeedupDist},
    {"fig17", bench::Fig17TimeBalance},
    {"fig18", bench::Fig18FeatureSize},
    {"fig19", bench::Fig19PhaseFeature},
    {"fig20", bench::Fig20HiddenDim},
    {"fig21", bench::Fig21PhaseLayers},
    {"fig22", bench::Fig22PhaseHidden},
    {"fig23", bench::Fig23Layers},
    {"fig24", bench::Fig24Scaleout},
    {"fig25", bench::Fig25GatSage},
    {"fig26", bench::Fig26Batchsize},
    {"fig_dyn", bench::FigDyn},
    {"fig_overlap", bench::FigOverlap},
    {"fig_serve", bench::FigServe},
    {"fig_smp", bench::FigSmp},
    {"table4", bench::Table4Amortization},
    {"table5", bench::Table5Amortization},
};

}  // namespace

int main(int argc, char** argv) {
  ExperimentContext ctx = bench::DefaultContext(argc, argv);
  const int args = bench::StripContextFlags(argc, argv);
  std::vector<const Table*> selected;
  for (int i = 1; i < args; ++i) {
    const Table* found = nullptr;
    for (const Table& table : kTables) {
      if (argv[i] == std::string(table.name)) found = &table;
    }
    if (found == nullptr) {
      std::cerr << "FATAL: unknown table '" << argv[i] << "'; valid tables:";
      for (const Table& table : kTables) std::cerr << " " << table.name;
      std::cerr << "\n";
      return 2;
    }
    selected.push_back(found);
  }
  if (selected.empty()) {
    for (const Table& table : kTables) selected.push_back(&table);
  }
  Study study(ctx);
  for (const Table* table : selected) {
    obs::ScopedTimer timer(std::string("time/table/") + table->name);
    table->run(study);
  }
  return 0;
}
