// fig-dyn: repartition-vs-decay curves on a growing graph (EXPERIMENTS.md
// "fig-dyn", DESIGN.md §12). Four partitioners (HDRF/Random on DistGNN,
// Fennel/ReLDG on DistDGL) each run the dynamic driver under three trigger
// policies — never repartition, every 2 batches, and a 5% quality-drift
// threshold — and are ranked by total cost: cumulative epoch seconds on the
// decayed partitioning plus the migration seconds the repartitions spent.
// The answer to the ROADMAP question "when is repartitioning worth the
// migration traffic", as a deterministic CI-gated manifest.
#include "bench/study/tables.h"

#include <algorithm>

#include "dyn/driver.h"
#include "net/topology.h"

namespace gnnpart::bench {

namespace {

struct Trigger {
  const char* label;
  size_t every;
  double threshold;
};

struct Row {
  std::string partitioner;
  std::string trigger;
  dyn::DynReport report;
};

}  // namespace

void FigDyn(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner(
      "Online repartitioning vs quality decay on a growing graph",
      "EXPERIMENTS.md fig-dyn (ROADMAP: dynamic graphs)", ctx);

  constexpr PartitionId kWorkers = 8;
  const DatasetId dataset = DatasetId::kEnwiki;
  const DatasetBundle& bundle =
      *bench::Unwrap(study.Dataset(dataset), "dataset");
  ClusterSpec cluster = ctx.MakeCluster(kWorkers);

  const std::vector<dyn::DynPartitionerSpec> specs = {
      {false, EdgePartitionerId::kHdrf, VertexPartitionerId::kRandom, "HDRF"},
      {false, EdgePartitionerId::kRandom, VertexPartitionerId::kRandom,
       "Random"},
      {true, EdgePartitionerId::kRandom, VertexPartitionerId::kFennel,
       "vFennel"},
      {true, EdgePartitionerId::kRandom, VertexPartitionerId::kReldg,
       "vReLDG"},
  };
  const std::vector<Trigger> triggers = {
      {"never", 0, 0.0},
      {"period2", 2, 0.0},
      {"thr105", 0, 1.05},
  };

  std::vector<Row> rows;
  for (const dyn::DynPartitionerSpec& spec : specs) {
    for (const Trigger& trigger : triggers) {
      dyn::DynConfig config;
      config.growth_batches = 6;
      config.initial_fraction = 0.4;
      config.epochs_per_batch = 2;
      config.repartition_every = trigger.every;
      config.quality_threshold = trigger.threshold;
      config.seed = ctx.seed;
      config.gnn.arch = GnnArchitecture::kGraphSage;
      config.gnn.num_layers = 3;
      config.gnn.feature_size = 64;
      config.gnn.hidden_dim = 64;
      config.gnn.num_classes = 16;
      config.gnn.fanouts = GnnConfig::DefaultFanouts(3);
      config.gnn.global_batch_size = ctx.global_batch_size;
      config.cluster = cluster;
      config.network = net::NetworkConfig::FromCluster(cluster);
      config.metrics_prefix =
          "bench/fig_dyn/" + spec.display + "/" + trigger.label;
      Row row;
      row.partitioner = spec.display;
      row.trigger = trigger.label;
      row.report = bench::Unwrap(
          dyn::RunDynamic(bundle.graph, spec, kWorkers, config), "dyn run");
      rows.push_back(std::move(row));
    }
  }

  // Rank by total cost: the decayed-quality epochs plus migration time.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.report.total_cost_seconds < b.report.total_cost_seconds;
  });

  TablePrinter table({"Partitioner", "System", "Trigger", "Reparts", "Moved",
                      "Migr MB", "Migr ms", "Epochs ms", "Total ms",
                      "Final RF/cut"});
  for (const Row& row : rows) {
    table.AddRow({row.partitioner,
                  row.report.vertex_mode ? "DistDGL" : "DistGNN", row.trigger,
                  std::to_string(row.report.repartitions),
                  std::to_string(row.report.total_moved_entities),
                  bench::F(row.report.total_migration_bytes / 1e6, 2),
                  bench::F(row.report.total_migration_seconds * 1e3, 2),
                  bench::F(row.report.total_epoch_seconds * 1e3, 1),
                  bench::F(row.report.total_cost_seconds * 1e3, 1),
                  bench::F(row.report.final_quality, 4)});
  }
  table.Print(std::cout);
}

}  // namespace gnnpart::bench
