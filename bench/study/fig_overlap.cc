// fig-overlap: re-ranks all 12 study partitioners under communication/
// computation pipelining on the three gnnpart::net fabrics (EXPERIMENTS.md
// "fig-overlap"). For every partitioner the BSP epoch, the pipelined epoch
// (gnnpart::net overlap replay), the hidden-communication share and the
// pipelined speedup vs Random are reported — the ROADMAP question "how
// much of each partitioner's advantage survives pipelining", answered per
// topology. GraphSage 3x64x64 on EN at k=8, the study's center cell.
#include "bench/study/tables.h"

#include "check/validators.h"
#include "net/flowsim.h"
#include "net/metrics.h"
#include "net/overlap.h"
#include "net/topology.h"

namespace gnnpart::bench {

namespace {

struct Cell {
  double bsp = 0;
  double pipelined = 0;
  double hidden_pct = 0;
};

/// One fabric variant of the overlap grid.
struct Topo {
  const char* label;
  net::NetworkConfig config;
};

std::vector<Topo> TopologyGrid(const ClusterSpec& cluster) {
  net::NetworkConfig base = net::NetworkConfig::FromCluster(cluster);
  Topo full{"full-bisection", base};
  Topo fat{"fat-tree 4:1", base};
  fat.config.topology = net::TopologyKind::kFatTree;
  fat.config.oversubscription = 4.0;
  Topo ring{"ring", base};
  ring.config.topology = net::TopologyKind::kRing;
  return {full, fat, ring};
}

/// Replays a logged epoch under pipelining and folds the result into the
/// obs manifest; the trace/overlap invariants are validated on every cell.
Cell Analyze(const net::Fabric& fabric, const net::LinkUsage& usage,
             const obs::EventLog& events) {
  const obs::EpochEvents& epoch = events.epochs().back();
  net::OverlapReport overlap = net::ComputeOverlap(epoch);
  Status ok = check::ValidateOverlapReport(epoch, overlap);
  if (!ok.ok()) {
    std::cerr << "FATAL: " << ok << "\n";
    std::exit(1);
  }
  ok = check::ValidateFlowConservation(fabric, usage);
  if (!ok.ok()) {
    std::cerr << "FATAL: " << ok << "\n";
    std::exit(1);
  }
  net::RecordOverlapMetrics(overlap);
  net::RecordUsageMetrics(fabric, usage);
  Cell cell;
  cell.bsp = overlap.bsp_epoch_seconds;
  cell.pipelined = overlap.pipelined_epoch_seconds;
  cell.hidden_pct = overlap.bsp_epoch_seconds > 0
                        ? 100.0 * overlap.hidden_seconds /
                              overlap.bsp_epoch_seconds
                        : 0;
  return cell;
}

}  // namespace

void FigOverlap(Study& study) {
  const ExperimentContext& ctx = study.ctx();
  bench::PrintBanner(
      "Partitioner ranking under communication/computation overlap",
      "EXPERIMENTS.md fig-overlap (ROADMAP: overlap modeling)", ctx);

  constexpr PartitionId kWorkers = 8;
  const DatasetId dataset = DatasetId::kEnwiki;
  ClusterSpec cluster = ctx.MakeCluster(kWorkers);
  GnnConfig config;
  config.arch = GnnArchitecture::kGraphSage;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(3);

  for (const Topo& topo : TopologyGrid(cluster)) {
    const net::Fabric fabric(topo.config, static_cast<int>(kWorkers));
    std::cout << "\n--- " << topo.label << " (" << topo.config.Summary()
              << ") ---\n";
    TablePrinter table({"Partitioner", "System", "BSP ms", "Pipelined ms",
                        "Hidden %", "Speedup vs Random"});

    // Full-batch (DistGNN, edge partitioners). Random is first in the
    // registry, so its pipelined epoch is available as the baseline.
    double random_pipelined = 0;
    for (EdgePartitionerId pid : AllEdgePartitioners()) {
      const DistGnnWorkload& w =
          bench::Unwrap(study.Edge(dataset, pid, kWorkers), "edge partitioner")
              ->workload;
      obs::EventLog events;
      net::LinkUsage usage;
      SimulateDistGnnEpoch(w, config, cluster, &fabric, &usage, &events);
      Cell cell = Analyze(fabric, usage, events);
      const std::string name = MakeEdgePartitioner(pid)->name();
      if (name == "Random") random_pipelined = cell.pipelined;
      table.AddRow({name, "DistGNN", bench::F(cell.bsp * 1e3, 1),
                    bench::F(cell.pipelined * 1e3, 1),
                    bench::F(cell.hidden_pct, 1),
                    bench::F(cell.pipelined > 0
                                 ? random_pipelined / cell.pipelined
                                 : 0,
                             2)});
    }

    // Mini-batch (DistDGL, vertex partitioners); profiles are network-
    // independent, so the memoized ones are reused across topologies.
    for (VertexPartitionerId pid : AllVertexPartitioners()) {
      const DistDglEpochProfile& profile = *bench::Unwrap(
          study.Profile(dataset, pid, kWorkers, config.num_layers,
                        ctx.global_batch_size),
          "profile");
      obs::EventLog events;
      net::LinkUsage usage;
      SimulateDistDglEpoch(profile, config, cluster, &fabric, &usage,
                           &events);
      Cell cell = Analyze(fabric, usage, events);
      const std::string name = MakeVertexPartitioner(pid)->name();
      if (name == "Random") random_pipelined = cell.pipelined;
      table.AddRow({name, "DistDGL", bench::F(cell.bsp * 1e3, 1),
                    bench::F(cell.pipelined * 1e3, 1),
                    bench::F(cell.hidden_pct, 1),
                    bench::F(cell.pipelined > 0
                                 ? random_pipelined / cell.pipelined
                                 : 0,
                             2)});
    }
    table.Print(std::cout);
  }
}

}  // namespace gnnpart::bench
