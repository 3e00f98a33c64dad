// gnnpart command-line tool: generate datasets, inspect graphs, partition
// edge-list files with any of the study's algorithms, verify structural
// invariants, and simulate distributed training epochs — the library's
// functionality for users who bring their own graphs.
//
//   gnnpart_cli generate <HW|DI|EN|EU|OR> <scale> <out-file> [seed]
//   gnnpart_cli info <graph-file> [--directed]
//   gnnpart_cli partition <graph-file> <partitioner> <k> [out-file]
//       [--directed] [--seed N] [--split-factor N]
//   gnnpart_cli check <graph-file> [<partitioner>|all <k>]
//       [--directed] [--seed N] [--split-factor N]
//   gnnpart_cli simulate <graph-file> <partitioner> <k>
//       [--feature N] [--hidden N] [--layers N] [--gbs N] [--directed]
//       [--trace-out FILE] [--topology T] [--oversubscription N]
//       [--rack-size N] [--nic-gbps N] [--overlap on|off]
//       [--split-factor N]
//   gnnpart_cli trace-report <graph-file> <partitioner> <k> [same flags]
//   gnnpart_cli net-report <graph-file> <partitioner> <k> [same flags]
//   gnnpart_cli explain <graph-file> <partitioner> <k> [same flags]
//       [--baseline FILE] [--top N]
//   gnnpart_cli dyn-run <graph-file> <partitioner> <k>
//       [--growth-batches N] [--initial-fraction PCT]
//       [--epochs-per-batch N] [--repartition-every N] [--rf-threshold PCT]
//       [--migration-penalty PCT] [simulate flags]
//   gnnpart_cli serve-run <graph-file> <partitioner> <k>
//       [--arrival-rate R] [--duration S] [--batch-size N]
//       [--batch-wait S] [--serve-weight W] [--cotenant]
//       [model/network flags] [--events-out FILE]
//   gnnpart_cli metrics <manifest.jsonl>
//
// Graph files are whitespace edge lists ("u v" per line, '#' comments) or
// the library's .bin snapshots (by extension).
//
// Argument handling is strict: unknown flags and missing or surplus
// positional arguments exit non-zero with the usage message instead of
// being silently ignored.
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/validators.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/table.h"
#include "common/timer.h"
#include "dyn/driver.h"
#include "gen/datasets.h"
#include "graph/components.h"
#include "graph/degree_stats.h"
#include "graph/io.h"
#include "metrics/partition_metrics.h"
#include "net/flowsim.h"
#include "net/metrics.h"
#include "net/overlap.h"
#include "net/topology.h"
#include "obs/events.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "partition/edge/registry.h"
#include "partition/split_merge.h"
#include "partition/vertex/registry.h"
#include "serve/serve.h"
#include "serve/workload.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"
#include "trace/analysis.h"
#include "trace/explain.h"
#include "trace/export.h"
#include "trace/report.h"

using namespace gnnpart;

namespace {

int Usage() {
  std::cerr
      << "usage:\n"
         "  gnnpart_cli generate <HW|DI|EN|EU|OR> <scale> <out> [seed]\n"
         "  gnnpart_cli info <graph> [--directed]\n"
         "  gnnpart_cli partition <graph> <partitioner> <k> [out]\n"
         "      [--directed] [--seed N] [--split-factor N]\n"
         "  gnnpart_cli check <graph> [<partitioner>|all <k>]\n"
         "      [--directed] [--seed N]  validate CSR invariants; with a\n"
         "      partitioner, verify the partitioning and recompute its\n"
         "      metrics bit-exactly ('all' runs the study's 12)\n"
         "      [--split-factor N]  also validate the split-merge plan\n"
         "  gnnpart_cli simulate <graph> <partitioner> <k> [--feature N]\n"
         "      [--hidden N] [--layers N] [--gbs N] [--directed] [--seed N]\n"
         "      [--trace-out FILE]  per-(step,worker,phase) timeline;\n"
         "      .csv -> flat CSV, else Chrome trace_event JSON (Perfetto)\n"
         "      with spans on pid 0 and network flows on pid 2\n"
         "      [--topology full-bisection|fat-tree|ring]  cluster fabric\n"
         "      [--oversubscription N] [--rack-size N]  fat-tree shape\n"
         "      [--nic-gbps N]  per-host NIC bandwidth\n"
         "      [--overlap on|off]  also report the pipelined epoch time\n"
         "      [--split-factor N]  split-merge parallel streaming mode\n"
         "      (HDRF/2PS-L/HEP only; 1 = sequential, bit-identical)\n"
         "  gnnpart_cli trace-report <graph> <partitioner> <k>\n"
         "      [simulate flags]  straggler-blame / critical-path tables\n"
         "  gnnpart_cli net-report <graph> <partitioner> <k>\n"
         "      [simulate flags]  per-link bytes, busy time, and peak/p99\n"
         "      utilization plus overlap-adjusted straggler blame on the\n"
         "      selected fabric\n"
         "  gnnpart_cli explain <graph> <partitioner> <k> | <events.jsonl>\n"
         "      [simulate flags]  attribute the epoch's critical path to\n"
         "      compute / barrier wait / congestion / migration, name the\n"
         "      top contended links with the partition pairs responsible,\n"
         "      and rank straggler workers; a single event-log argument\n"
         "      (written by --events-out) replays a saved run bit-exactly\n"
         "      [--baseline FILE]  diff against an event log written by\n"
         "      --events-out\n"
         "      [--top N]  rows in the link/straggler tables (default 5)\n"
         "  gnnpart_cli dyn-run <graph> <partitioner> <k>\n"
         "      [--growth-batches N]  growth batches after the initial\n"
         "      snapshot (0 = static run, bit-identical to 'simulate')\n"
         "      [--initial-fraction PCT]  edges in the initial snapshot\n"
         "      [--epochs-per-batch N]  training epochs per interval\n"
         "      [--repartition-every N]  period trigger (0 = off)\n"
         "      [--rf-threshold PCT]  quality trigger: repartition when\n"
         "      RF / edge-cut exceeds PCT% of the last baseline (0 = off)\n"
         "      [--migration-penalty PCT]  ReFennel/ReLDG stay bonus\n"
         "      (migration cost in neighbor-score units, default 50)\n"
         "      [simulate flags]  --feature/--hidden/--layers/--gbs,\n"
         "      --seed, --directed, --trace-out and the network flags\n"
         "  gnnpart_cli serve-run <graph> <partitioner> <k>\n"
         "      multi-tenant inference serving: open-loop requests, batched\n"
         "      per partition, priced on the shared fabric; reports\n"
         "      p50/p95/p99 latency and a queue/compute/network/congestion\n"
         "      breakdown\n"
         "      [--arrival-rate R]  requests per simulated second\n"
         "      (default 200)\n"
         "      [--duration S]  arrival window in simulated seconds\n"
         "      (default 1)\n"
         "      [--batch-size N]  dispatch when a partition queue reaches\n"
         "      N requests (default 8)\n"
         "      [--batch-wait S]  max seconds the oldest request waits\n"
         "      before its queue dispatches anyway (default 0.002; 0 =\n"
         "      dispatch on arrival)\n"
         "      [--serve-weight W]  fair-share weight of serving flows vs\n"
         "      weight-1 training flows (default 4; 1 = no preemption)\n"
         "      [--cotenant]  replay a DistDGL training epoch on the same\n"
         "      fabric for the whole serving window\n"
         "      [model/network flags]  --feature/--hidden/--layers/--gbs,\n"
         "      --seed, --directed, --topology, --oversubscription,\n"
         "      --rack-size, --nic-gbps; plus --events-out\n"
         "  gnnpart_cli metrics <manifest.jsonl>  pretty-print a run\n"
         "      manifest written by --metrics-out\n"
         "partitioners: Random DBH HDRF 2PS-L HEP10 HEP100 Greedy (edge)\n"
         "              Random LDG Spinner Metis ByteGNN KaHIP Fennel"
         " (vertex; prefix with 'v' for Random, e.g. vRandom)\n"
         "global flags: --threads N  worker threads (default: all cores;\n"
         "              results are identical for every N)\n"
         "              --metrics-out FILE  write a JSONL run manifest of\n"
         "              all counters/gauges/histograms/timers at exit\n"
         "shared flag:  --events-out FILE  write the causal event timeline\n"
         "              (spans, flows, link samples, repartitions) as JSONL;\n"
         "              accepted by simulate/trace-report/net-report/\n"
         "              explain/dyn-run, byte-identical for every\n"
         "              --threads N\n";
  return 2;
}

/// A flag a subcommand accepts, and whether it consumes the next argument.
struct FlagSpec {
  const char* name;
  bool takes_value;
};

/// Splits `args` into positional arguments, rejecting unknown flags and
/// wrong positional counts loudly (exit 2 + usage) instead of the old
/// behavior of silently ignoring stray arguments.
std::vector<std::string> Positionals(const std::vector<std::string>& args,
                                     const std::vector<FlagSpec>& flags,
                                     size_t min_count, size_t max_count) {
  std::vector<std::string> positionals;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() > 1 && arg[0] == '-' &&
        !std::isdigit(static_cast<unsigned char>(arg[1]))) {
      const FlagSpec* spec = nullptr;
      for (const FlagSpec& f : flags) {
        if (arg == f.name) {
          spec = &f;
          break;
        }
      }
      if (spec == nullptr) {
        std::cerr << "error: unknown flag '" << arg << "'\n";
        std::exit(Usage());
      }
      if (spec->takes_value) {
        if (i + 1 >= args.size()) {
          std::cerr << "error: " << arg << " requires a value\n";
          std::exit(Usage());
        }
        ++i;  // the value is consumed by the FlagValue lookups
      }
      continue;
    }
    positionals.push_back(arg);
  }
  if (positionals.size() < min_count || positionals.size() > max_count) {
    std::cerr << "error: expected between " << min_count << " and "
              << max_count << " positional arguments, got "
              << positionals.size() << "\n";
    std::exit(Usage());
  }
  return positionals;
}

bool HasFlag(const std::vector<std::string>& args, const std::string& flag) {
  for (const auto& a : args) {
    if (a == flag) return true;
  }
  return false;
}

/// Validated `--flag N` lookup: absent -> `fallback`; present with a
/// missing, non-numeric, non-positive or > `max` value -> loud exit (no
/// silent atol-style zero defaults).
long FlagValue(const std::vector<std::string>& args, const std::string& flag,
               long fallback, long max = std::numeric_limits<long>::max()) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    if (i + 1 >= args.size()) {
      std::cerr << "error: " << flag << " requires a value\n";
      std::exit(2);
    }
    const long v = ParsePositiveInt(args[i + 1].c_str(), max);
    if (v < 1) {
      std::cerr << "error: invalid " << flag << " value '" << args[i + 1]
                << "' (expected a positive integer";
      if (max != std::numeric_limits<long>::max()) std::cerr << " <= " << max;
      std::cerr << ")\n";
      std::exit(2);
    }
    return v;
  }
  return fallback;
}

/// Validated `--flag N` lookup for flags where 0 means "off": like
/// FlagValue, but 0 is accepted.
long NonNegativeFlagValue(const std::vector<std::string>& args,
                          const std::string& flag, long fallback,
                          long max = std::numeric_limits<long>::max()) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    if (i + 1 >= args.size()) {
      std::cerr << "error: " << flag << " requires a value\n";
      std::exit(2);
    }
    const long v = ParseNonNegativeInt(args[i + 1].c_str(), max);
    if (v < 0) {
      std::cerr << "error: invalid " << flag << " value '" << args[i + 1]
                << "' (expected a non-negative integer";
      if (max != std::numeric_limits<long>::max()) std::cerr << " <= " << max;
      std::cerr << ")\n";
      std::exit(2);
    }
    return v;
  }
  return fallback;
}

/// Validated `--flag X` lookup for fractional flags (--rf-threshold,
/// --migration-penalty, --initial-fraction, --arrival-rate, ...): absent
/// -> `fallback`; present with a missing, non-numeric, non-positive,
/// non-finite or > `max` value -> loud exit 2 via ParsePositiveDouble, the
/// FP twin of the integer FlagValue path.
double DoubleFlagValue(const std::vector<std::string>& args,
                       const std::string& flag, double fallback,
                       double max = std::numeric_limits<double>::max()) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    if (i + 1 >= args.size()) {
      std::cerr << "error: " << flag << " requires a value\n";
      std::exit(2);
    }
    const double v = ParsePositiveDouble(args[i + 1].c_str(), max);
    if (v < 0) {
      std::cerr << "error: invalid " << flag << " value '" << args[i + 1]
                << "' (expected a positive number";
      if (max != std::numeric_limits<double>::max()) std::cerr << " <= " << max;
      std::cerr << ")\n";
      std::exit(2);
    }
    return v;
  }
  return fallback;
}

/// DoubleFlagValue, but a literal zero is accepted — for flags where 0
/// means "off" (--rf-threshold, --migration-penalty) or "immediately"
/// (--batch-wait). "-0" and negative values stay rejected.
double NonNegativeDoubleFlagValue(
    const std::vector<std::string>& args, const std::string& flag,
    double fallback, double max = std::numeric_limits<double>::max()) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    if (i + 1 >= args.size()) {
      std::cerr << "error: " << flag << " requires a value\n";
      std::exit(2);
    }
    const char* s = args[i + 1].c_str();
    errno = 0;
    char* end = nullptr;
    const double z = std::strtod(s, &end);
    if (errno == 0 && end != s && *end == '\0' && z == 0 &&
        !std::signbit(z)) {
      return 0.0;
    }
    const double v = ParsePositiveDouble(s, max);
    if (v < 0) {
      std::cerr << "error: invalid " << flag << " value '" << args[i + 1]
                << "' (expected a non-negative number";
      if (max != std::numeric_limits<double>::max()) std::cerr << " <= " << max;
      std::cerr << ")\n";
      std::exit(2);
    }
    return v;
  }
  return fallback;
}

std::string StringFlagValue(const std::vector<std::string>& args,
                            const std::string& flag) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    if (i + 1 >= args.size()) {
      std::cerr << "error: " << flag << " requires a value\n";
      std::exit(2);
    }
    return args[i + 1];
  }
  return "";
}

/// Validated positional partition count.
PartitionId ParseK(const std::string& arg) {
  const long v = ParsePositiveInt(arg.c_str(), kMaxPartitions);
  if (v < 1) {
    std::cerr << "error: invalid partition count '" << arg
              << "' (expected an integer in [1, " << kMaxPartitions << "])\n";
    std::exit(2);
  }
  return static_cast<PartitionId>(v);
}

/// Validated --split-factor lookup shared by partition / check / simulate:
/// factor 1 (the default) runs the sequential partitioner unchanged.
int ParseSplitFactor(const std::vector<std::string>& args) {
  return static_cast<int>(
      FlagValue(args, "--split-factor", 1, kMaxSplitFactor));
}

/// Instantiates an edge partitioner honouring --split-factor, exiting
/// loudly when a factor > 1 is requested for a partitioner without a
/// streaming core to shard.
std::unique_ptr<EdgePartitioner> MakeEdgePartitionerOrDie(
    EdgePartitionerId id, int split_factor) {
  std::unique_ptr<EdgePartitioner> partitioner =
      MakeEdgePartitioner(id, split_factor);
  if (partitioner == nullptr) {
    std::cerr << "error: --split-factor > 1 requires a streaming partitioner "
                 "(HDRF, 2PS-L, HEP10, HEP100); "
              << MakeEdgePartitioner(id)->name() << " has no streaming core\n";
    std::exit(2);
  }
  return partitioner;
}

/// Network flags shared by simulate / trace-report / net-report. Starts
/// from the legacy fabric (NetworkConfig::FromCluster) and only overrides
/// what was passed explicitly, so the default run is byte-identical to the
/// pre-net cost model. All numeric values go through ParsePositiveInt via
/// FlagValue (loud exit 2 on garbage); --overlap only accepts on|off.
net::NetworkConfig ParseNetworkConfig(const std::vector<std::string>& args,
                                      const ClusterSpec& cluster) {
  net::NetworkConfig cfg = net::NetworkConfig::FromCluster(cluster);
  if (HasFlag(args, "--topology")) {
    Result<net::TopologyKind> kind =
        net::ParseTopologyName(StringFlagValue(args, "--topology"));
    if (!kind.ok()) {
      std::cerr << "error: " << kind.status() << "\n";
      std::exit(2);
    }
    cfg.topology = *kind;
  }
  if (HasFlag(args, "--oversubscription")) {
    cfg.oversubscription =
        static_cast<double>(FlagValue(args, "--oversubscription", 1, 64));
  }
  if (HasFlag(args, "--rack-size")) {
    cfg.rack_size = static_cast<int>(FlagValue(args, "--rack-size", 4, 64));
  }
  if (HasFlag(args, "--nic-gbps")) {
    cfg.nic_bandwidth =
        static_cast<double>(FlagValue(args, "--nic-gbps", 1, 1000)) * 1.25e8;
  }
  if (HasFlag(args, "--overlap")) {
    const std::string value = StringFlagValue(args, "--overlap");
    if (value == "on") {
      cfg.overlap = true;
    } else if (value == "off") {
      cfg.overlap = false;
    } else {
      std::cerr << "error: invalid --overlap value '" << value
                << "' (expected on or off)\n";
      std::exit(2);
    }
  }
  return cfg;
}

Result<Graph> LoadGraph(const std::string& path, bool directed) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
    return ReadBinaryGraph(path);
  }
  return ReadEdgeListFile(path, directed);
}

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

int CmdGenerate(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(args, {}, 3, 4);
  Result<DatasetId> id = ParseDatasetCode(pos[0]);
  if (!id.ok()) return Fail(id.status());
  double scale = atof(pos[1].c_str());
  uint64_t seed = 42;
  if (pos.size() > 3) {
    const long v = ParsePositiveInt(pos[3].c_str());
    if (v < 1) {
      std::cerr << "error: invalid seed '" << pos[3]
                << "' (expected a positive integer)\n";
      return 2;
    }
    seed = static_cast<uint64_t>(v);
  }
  Result<Graph> graph = MakeDataset(*id, scale, seed);
  if (!graph.ok()) return Fail(graph.status());
  const std::string& out = pos[2];
  Status st = (out.size() > 4 && out.substr(out.size() - 4) == ".bin")
                  ? WriteBinaryGraph(*graph, out)
                  : WriteEdgeListFile(*graph, out);
  if (!st.ok()) return Fail(st);
  std::cout << "wrote " << graph->name() << " |V|=" << graph->num_vertices()
            << " |E|=" << graph->num_edges() << " to " << out << "\n";
  return 0;
}

int CmdInfo(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(args, {{"--directed", false}},
                                             1, 1);
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  DegreeStats stats = ComputeDegreeStats(*graph);
  ComponentInfo comps = ConnectedComponents(*graph);
  std::cout << stats.ToString() << "\n"
            << "components=" << comps.num_components
            << " largest=" << comps.largest_size
            << " pseudo-diameter=" << EstimateDiameter(*graph) << "\n";
  return 0;
}

int CmdPartition(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(
      args,
      {{"--directed", false}, {"--seed", true}, {"--split-factor", true}}, 3,
      4);
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  PartitionId k = ParseK(pos[2]);
  uint64_t seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  const int split_factor = ParseSplitFactor(args);
  std::string out = pos.size() > 3 ? pos[3] : "";
  std::string name = pos[1];

  VertexSplit split =
      VertexSplit::MakeRandom(graph->num_vertices(), 0.1, 0.1, seed);
  bool vertex_mode = !name.empty() && name[0] == 'v';
  std::string lookup = vertex_mode ? name.substr(1) : name;

  WallTimer timer;
  std::vector<PartitionId> assignment;
  if (!vertex_mode) {
    if (Result<EdgePartitionerId> id = ParseEdgePartitionerName(lookup);
        id.ok()) {
      auto partitioner = MakeEdgePartitionerOrDie(*id, split_factor);
      Result<EdgePartitioning> parts = partitioner->Partition(*graph, k, seed);
      if (!parts.ok()) return Fail(parts.status());
      std::cout << partitioner->name() << " k=" << k << " took "
                << timer.ElapsedSeconds() << " s: "
                << ComputeEdgePartitionMetrics(*graph, *parts).ToString()
                << "\n";
      assignment = parts->assignment;
    } else {
      vertex_mode = true;  // fall through to vertex lookup
    }
  }
  if (vertex_mode) {
    if (split_factor > 1) {
      std::cerr << "error: --split-factor applies to edge (vertex-cut) "
                   "streaming partitioners only\n";
      return 2;
    }
    Result<VertexPartitionerId> id = ParseVertexPartitionerName(lookup);
    if (!id.ok()) return Fail(id.status());
    Result<VertexPartitioning> parts =
        MakeVertexPartitioner(*id)->Partition(*graph, split, k, seed);
    if (!parts.ok()) return Fail(parts.status());
    std::cout << lookup << " k=" << k << " took " << timer.ElapsedSeconds()
              << " s: "
              << ComputeVertexPartitionMetrics(*graph, *parts, split)
                     .ToString()
              << "\n";
    assignment = parts->assignment;
  }
  if (!out.empty()) {
    std::ofstream f(out);
    if (!f) return Fail(Status::IoError("cannot open '" + out + "'"));
    for (size_t i = 0; i < assignment.size(); ++i) {
      f << i << " " << assignment[i] << "\n";
    }
    std::cout << "wrote assignment to " << out << "\n";
  }
  return 0;
}

/// Runs one edge partitioner and verifies its output end to end: structural
/// partition validity, replica-mask consistency, and a bit-exact serial
/// recomputation of every metric the figures are built from. With an
/// explicit --split-factor the run goes through split-merge execution and
/// additionally validates the execution plan (shard coverage, sub-partition
/// ranges, merge conservation) — plus, at factor 1, serial equivalence
/// against the sequential partitioner.
int CheckOneEdgePartitioner(const Graph& graph, EdgePartitionerId id,
                            PartitionId k, uint64_t seed,
                            int split_factor = 0) {
  std::unique_ptr<EdgePartitioner> partitioner;
  Result<EdgePartitioning> parts = Status::Internal("not run");
  if (split_factor >= 1) {
    if (!SupportsSplitMerge(id)) {
      std::cerr << "error: --split-factor requires a streaming partitioner "
                   "(HDRF, 2PS-L, HEP10, HEP100); "
                << MakeEdgePartitioner(id)->name()
                << " has no streaming core\n";
      return 2;
    }
    auto sm = std::make_unique<SplitMergePartitioner>(
        MakeStreamingEdgePartitioner(id), split_factor);
    SplitMergePlan plan;
    parts = sm->PartitionWithPlan(graph, k, seed, &plan);
    if (!parts.ok()) return Fail(parts.status());
    if (Status st = check::ValidateSplitMergePlan(graph, plan, *parts);
        !st.ok()) {
      return Fail(st);
    }
    if (split_factor == 1) {
      if (Status st = check::CheckSplitMergeSerialEquivalence(
              graph, *MakeEdgePartitioner(id), k, seed, *parts);
          !st.ok()) {
        return Fail(st);
      }
    }
    std::cout << "  " << sm->name() << ": split-merge plan OK ("
              << split_factor << " shards"
              << (split_factor == 1 ? ", serial-equivalent" : "") << ")\n";
    partitioner = std::move(sm);
  } else {
    partitioner = MakeEdgePartitioner(id);
    parts = partitioner->Partition(graph, k, seed);
    if (!parts.ok()) return Fail(parts.status());
  }
  if (Status st = check::ValidateEdgePartitioning(graph, *parts); !st.ok()) {
    return Fail(st);
  }
  std::vector<uint64_t> masks = ComputeReplicaMasks(graph, *parts);
  if (Status st = check::ValidateReplicaMasks(graph, *parts, masks);
      !st.ok()) {
    return Fail(st);
  }
  EdgePartitionMetrics metrics = ComputeEdgePartitionMetrics(graph, *parts);
  if (Status st = check::CheckEdgeMetrics(graph, *parts, metrics); !st.ok()) {
    return Fail(st);
  }
  std::cout << "  " << partitioner->name() << " k=" << k
            << ": partition OK, replica masks OK, metrics bit-exact ("
            << metrics.ToString() << ")\n";
  return 0;
}

/// Vertex-partitioner counterpart of CheckOneEdgePartitioner.
int CheckOneVertexPartitioner(const Graph& graph, const VertexSplit& split,
                              VertexPartitionerId id, PartitionId k,
                              uint64_t seed) {
  auto partitioner = MakeVertexPartitioner(id);
  Result<VertexPartitioning> parts =
      partitioner->Partition(graph, split, k, seed);
  if (!parts.ok()) return Fail(parts.status());
  if (Status st = check::ValidateVertexPartitioning(graph, *parts);
      !st.ok()) {
    return Fail(st);
  }
  VertexPartitionMetrics metrics =
      ComputeVertexPartitionMetrics(graph, *parts, split);
  if (Status st = check::CheckVertexMetrics(graph, *parts, split, metrics);
      !st.ok()) {
    return Fail(st);
  }
  std::cout << "  v" << partitioner->name() << " k=" << k
            << ": partition OK, metrics bit-exact (" << metrics.ToString()
            << ")\n";
  return 0;
}

int CmdCheck(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(
      args,
      {{"--directed", false}, {"--seed", true}, {"--split-factor", true}}, 1,
      3);
  if (pos.size() == 2) {
    std::cerr << "error: 'check <graph> <partitioner>' also needs <k>\n";
    return Usage();
  }
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  if (Status st = check::ValidateGraph(*graph); !st.ok()) return Fail(st);
  std::cout << "graph OK: |V|=" << graph->num_vertices()
            << " |E|=" << graph->num_edges()
            << " (CSR sorted/unique/symmetric, canonical edge list)\n";
  if (pos.size() == 1) return 0;

  PartitionId k = ParseK(pos[2]);
  uint64_t seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  // 0 = flag absent (legacy path); an explicit --split-factor N (N >= 1)
  // routes the run through split-merge execution and its plan validators.
  const int split_factor =
      HasFlag(args, "--split-factor") ? ParseSplitFactor(args) : 0;
  VertexSplit split =
      VertexSplit::MakeRandom(graph->num_vertices(), 0.1, 0.1, seed);
  const std::string& name = pos[1];

  if (name == "all") {
    for (EdgePartitionerId id : AllEdgePartitioners()) {
      // Split-merge applies to the streaming partitioners only; under
      // 'all', check the others on their legacy path.
      const int sf =
          split_factor >= 1 && SupportsSplitMerge(id) ? split_factor : 0;
      if (int rc = CheckOneEdgePartitioner(*graph, id, k, seed, sf);
          rc != 0) {
        return rc;
      }
    }
    for (VertexPartitionerId id : AllVertexPartitioners()) {
      if (int rc = CheckOneVertexPartitioner(*graph, split, id, k, seed);
          rc != 0) {
        return rc;
      }
    }
    std::cout << "all " << AllEdgePartitioners().size() << "+"
              << AllVertexPartitioners().size() << " partitioners verified\n";
    return 0;
  }

  bool vertex_mode = !name.empty() && name[0] == 'v';
  std::string lookup = vertex_mode ? name.substr(1) : name;
  if (!vertex_mode) {
    if (Result<EdgePartitionerId> id = ParseEdgePartitionerName(lookup);
        id.ok()) {
      return CheckOneEdgePartitioner(*graph, *id, k, seed, split_factor);
    }
  }
  if (split_factor >= 1) {
    std::cerr << "error: --split-factor applies to edge (vertex-cut) "
                 "streaming partitioners only\n";
    return 2;
  }
  Result<VertexPartitionerId> id = ParseVertexPartitionerName(lookup);
  if (!id.ok()) return Fail(id.status());
  return CheckOneVertexPartitioner(*graph, split, *id, k, seed);
}

/// What the shared simulate pipeline should print at the end.
enum class SimMode { kSimulate, kTraceReport, kNetReport, kExplain };

/// Formats a link's top talkers as "src->dst N MB" triples; dst -1 (an
/// aggregate route fanning out to several destinations) prints as "*".
std::string FormatTalkers(const trace::LinkContention& link, size_t top) {
  std::string out;
  for (size_t t = 0; t < link.talkers.size() && t < top; ++t) {
    const trace::LinkContention::Talker& talker = link.talkers[t];
    if (!out.empty()) out += "; ";
    out += std::to_string(talker.src);
    out += "->";
    out += talker.dst < 0 ? std::string("*") : std::to_string(talker.dst);
    out += " ";
    out += TablePrinter::Fmt(talker.bytes / 1e6, 2);
    out += " MB";
  }
  return out;
}

/// Prints the attribution tables of the `explain` subcommand, optionally
/// against a baseline report loaded from --baseline.
void PrintExplain(const trace::ExplainReport& rep,
                  const trace::ExplainReport* baseline, size_t top) {
  std::cout << "\n--- explain: critical-path attribution ---\n";
  std::vector<std::string> header = {"component", "ms", "% of total"};
  if (baseline != nullptr) {
    header.push_back("baseline ms");
    header.push_back("delta ms");
  }
  TablePrinter comp(header);
  auto row = [&](const char* name, double seconds, double base_seconds) {
    std::vector<std::string> cells = {
        name, TablePrinter::Fmt(seconds * 1e3, 3),
        TablePrinter::Fmt(
            rep.total_seconds > 0 ? 100.0 * seconds / rep.total_seconds : 0.0,
            1)};
    if (baseline != nullptr) {
      cells.push_back(TablePrinter::Fmt(base_seconds * 1e3, 3));
      cells.push_back(TablePrinter::Fmt((seconds - base_seconds) * 1e3, 3));
    }
    comp.AddRow(cells);
  };
  const trace::ExplainReport zero;
  const trace::ExplainReport& base = baseline != nullptr ? *baseline : zero;
  row("compute", rep.compute_seconds, base.compute_seconds);
  row("wait", rep.wait_seconds, base.wait_seconds);
  // Serving runs split the wait between request queueing and uncontended
  // comm; training runs have no queueing and skip the row.
  if (rep.queue_seconds > 0 || base.queue_seconds > 0) {
    row("  of which queueing", rep.queue_seconds, base.queue_seconds);
  }
  row("congestion", rep.congestion_seconds, base.congestion_seconds);
  row("migration", rep.migration_seconds, base.migration_seconds);
  row("total", rep.total_seconds, base.total_seconds);
  comp.Print(std::cout);
  std::cout << "(components sum to the total bit-exactly; solved wait "
               "cross-checks against "
            << TablePrinter::Fmt(
                   (rep.uncontended_comm_seconds + rep.queue_seconds) * 1e3, 3)
            << " ms of uncontended comm + queueing; " << rep.epochs.size()
            << " epoch(s))\n";

  if (!rep.links.empty()) {
    std::cout << "\n--- top contended links ---\n";
    TablePrinter links({"link", "MB", "busy ms", "contended ms", "peak %",
                        "p99 %", "top talkers"});
    for (size_t l = 0; l < rep.links.size() && l < top; ++l) {
      const trace::LinkContention& link = rep.links[l];
      links.AddRow({link.name, TablePrinter::Fmt(link.bytes / 1e6, 2),
                    TablePrinter::Fmt(link.busy_seconds * 1e3, 3),
                    TablePrinter::Fmt(link.contended_seconds * 1e3, 3),
                    TablePrinter::Fmt(100.0 * link.peak_utilization, 1),
                    TablePrinter::Fmt(100.0 * link.p99_utilization, 1),
                    FormatTalkers(link, 3)});
    }
    links.Print(std::cout);
  }

  if (!rep.stragglers.empty()) {
    std::cout << "\n--- straggler ranking ---\n";
    TablePrinter stragglers({"worker", "blame ms", "barriers blamed"});
    for (size_t w = 0; w < rep.stragglers.size() && w < top; ++w) {
      const trace::StragglerStat& s = rep.stragglers[w];
      stragglers.AddRow({std::to_string(s.worker),
                         TablePrinter::Fmt(s.blame_seconds * 1e3, 3),
                         std::to_string(s.steps_blamed)});
    }
    stragglers.Print(std::cout);
  }
}

/// Shared tail of the two `explain` entry points: attribution from a
/// just-collected (or loaded) event log, the optional --baseline diff,
/// the tables.
int FinishExplain(const obs::EventLog& log,
                  const std::vector<std::string>& args) {
  Result<trace::ExplainReport> rep = trace::ComputeExplain(log);
  if (!rep.ok()) return Fail(rep.status());
  const size_t top = static_cast<size_t>(FlagValue(args, "--top", 5));
  trace::ExplainReport baseline_rep;
  const trace::ExplainReport* baseline = nullptr;
  const std::string baseline_path = StringFlagValue(args, "--baseline");
  if (!baseline_path.empty()) {
    Result<obs::EventLog> blog = obs::LoadEventsFile(baseline_path);
    if (!blog.ok()) return Fail(blog.status());
    Result<trace::ExplainReport> brep = trace::ComputeExplain(*blog);
    if (!brep.ok()) return Fail(brep.status());
    baseline_rep = *brep;
    baseline = &baseline_rep;
  }
  PrintExplain(*rep, baseline, top);
  return 0;
}

/// `explain <events.jsonl>`: attribution straight from a saved event log,
/// no simulation. The file's %.17g doubles parse back bit-equal, so the
/// report reproduces the in-process attribution of the run that wrote it.
int ExplainFromFile(const std::string& path,
                    const std::vector<std::string>& args) {
  Result<obs::EventLog> log = obs::LoadEventsFile(path);
  if (!log.ok()) return Fail(log.status());
  if (Status st = check::ValidateEventLog(*log); !st.ok()) return Fail(st);
  return FinishExplain(*log, args);
}

/// Number of span records in one epoch of the event log.
size_t SpanCount(const obs::EpochEvents& epoch) {
  size_t spans = 0;
  for (const obs::Event& e : epoch.events) {
    spans += e.kind == obs::Event::Kind::kSpan;
  }
  return spans;
}

/// Shared pipeline of `simulate`, `trace-report`, `net-report` and
/// `explain`: load, partition (timed as `time/partition` in the
/// --metrics-out manifest), simulate one epoch — with an event log
/// attached when the trace file, the event file, the report tables or the
/// overlap analysis ask for one. In a paranoid-check build the graph and
/// the partitioning are fully validated between the partition and simulate
/// stages. With a log attached, the trace/report invariant (per-step phase
/// maxima must reproduce the report's phase seconds bit-exactly), the log's
/// shape and its attribution identity are verified before anything is
/// written; net-report additionally verifies flow conservation and the
/// overlap report's serial re-derivation.
int RunSimulation(const std::vector<std::string>& args, SimMode mode) {
  std::vector<FlagSpec> flags = {{"--feature", true},
                                 {"--hidden", true},
                                 {"--layers", true},
                                 {"--gbs", true},
                                 {"--directed", false},
                                 {"--seed", true},
                                 {"--trace-out", true},
                                 {"--events-out", true},
                                 {"--topology", true},
                                 {"--oversubscription", true},
                                 {"--rack-size", true},
                                 {"--nic-gbps", true},
                                 {"--overlap", true},
                                 {"--split-factor", true}};
  if (mode == SimMode::kExplain) {
    flags.push_back({"--baseline", true});
    flags.push_back({"--top", true});
  }
  // `explain` alone also accepts a single saved event file in place of
  // the graph/partitioner/k triple; two positionals are still a usage
  // error.
  std::vector<std::string> pos =
      Positionals(args, flags, mode == SimMode::kExplain ? 1 : 3, 3);
  if (mode == SimMode::kExplain && pos.size() == 1) {
    return ExplainFromFile(pos[0], args);
  }
  if (pos.size() != 3) return Usage();
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  if constexpr (check::ParanoidEnabled()) {
    if (Status st = check::ValidateGraph(*graph); !st.ok()) return Fail(st);
  }
  PartitionId k = ParseK(pos[2]);
  uint64_t seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  GnnConfig config;
  config.feature_size = static_cast<size_t>(FlagValue(args, "--feature", 64));
  config.hidden_dim = static_cast<size_t>(FlagValue(args, "--hidden", 64));
  config.num_layers = static_cast<int>(FlagValue(args, "--layers", 3));
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(config.num_layers);
  size_t gbs = static_cast<size_t>(FlagValue(args, "--gbs", 256));
  ClusterSpec cluster;
  cluster.num_machines = static_cast<int>(k);
  std::string name = pos[1];
  const std::string trace_out = StringFlagValue(args, "--trace-out");
  const std::string events_out = StringFlagValue(args, "--events-out");
  const net::NetworkConfig netcfg = ParseNetworkConfig(args, cluster);
  const net::Fabric fabric(netcfg, static_cast<int>(k));
  net::LinkUsage usage;
  // Every trace view reads the event log; a null log costs the simulators
  // nothing.
  obs::EventLog event_log;
  obs::EventLog* events = (mode != SimMode::kSimulate || netcfg.overlap ||
                           !trace_out.empty() || !events_out.empty())
                              ? &event_log
                              : nullptr;

  if (Result<EdgePartitionerId> id = ParseEdgePartitionerName(name); id.ok()) {
    auto partitioner =
        MakeEdgePartitionerOrDie(*id, ParseSplitFactor(args));
    Result<EdgePartitioning> parts = [&] {
      obs::ScopedTimer timer("time/partition");
      return partitioner->Partition(*graph, k, seed);
    }();
    if (!parts.ok()) return Fail(parts.status());
    if constexpr (check::ParanoidEnabled()) {
      if (Status st = check::ValidateEdgePartitioning(*graph, *parts);
          !st.ok()) {
        return Fail(st);
      }
    }
    DistGnnEpochReport r =
        SimulateDistGnnEpoch(BuildDistGnnWorkload(*graph, *parts), config,
                             cluster, &fabric, &usage, events);
    std::cout << "full-batch epoch " << r.epoch_seconds * 1e3 << " ms"
              << " (fwd " << r.forward_seconds * 1e3 << ", bwd "
              << r.backward_seconds * 1e3 << "), network "
              << r.total_network_bytes / 1e6 << " MB, peak memory "
              << r.max_memory_bytes / 1e6 << " MB"
              << (r.out_of_memory ? " (OOM!)" : "") << "\n";
    if (events != nullptr) {
      if (Status st = check::CheckTraceReconstructsReport(
              event_log.epochs().back(), r);
          !st.ok()) {
        return Fail(st);
      }
    }
  } else {
    if (ParseSplitFactor(args) > 1) {
      std::cerr << "error: --split-factor applies to edge (vertex-cut) "
                   "streaming partitioners only\n";
      return 2;
    }
    std::string lookup =
        !name.empty() && name[0] == 'v' ? name.substr(1) : name;
    Result<VertexPartitionerId> vid = ParseVertexPartitionerName(lookup);
    if (!vid.ok()) return Fail(vid.status());
    VertexSplit split =
        VertexSplit::MakeRandom(graph->num_vertices(), 0.1, 0.1, seed);
    Result<VertexPartitioning> parts = [&] {
      obs::ScopedTimer timer("time/partition");
      return MakeVertexPartitioner(*vid)->Partition(*graph, split, k, seed);
    }();
    if (!parts.ok()) return Fail(parts.status());
    if constexpr (check::ParanoidEnabled()) {
      if (Status st = check::ValidateVertexPartitioning(*graph, *parts);
          !st.ok()) {
        return Fail(st);
      }
    }
    Result<DistDglEpochProfile> profile =
        ProfileDistDglEpoch(*graph, *parts, split, config.fanouts, gbs, seed);
    if (!profile.ok()) return Fail(profile.status());
    if constexpr (check::ParanoidEnabled()) {
      if (Status st = check::ValidateProfile(*profile); !st.ok()) {
        return Fail(st);
      }
    }
    DistDglEpochReport r = SimulateDistDglEpoch(*profile, config, cluster,
                                                &fabric, &usage, events);
    std::cout << "mini-batch epoch " << r.epoch_seconds * 1e3
              << " ms (sampling " << r.sampling_seconds * 1e3 << ", fetch "
              << r.feature_seconds * 1e3 << ", fwd " << r.forward_seconds * 1e3
              << ", bwd " << r.backward_seconds * 1e3 << "), remote vertices "
              << r.remote_input_vertices << ", network "
              << r.total_network_bytes / 1e6 << " MB\n";
    if (events != nullptr) {
      if (Status st = check::CheckTraceReconstructsReport(
              event_log.epochs().back(), r);
          !st.ok()) {
        return Fail(st);
      }
    }
  }

  if (events != nullptr) {
    // Integrity before anything is printed or written: the event stream
    // must be well-formed and its attribution must close the
    // component-sum identity.
    if (Status st = check::ValidateEventLog(event_log); !st.ok()) {
      return Fail(st);
    }
    if (Status st = check::CheckEventAttribution(event_log); !st.ok()) {
      return Fail(st);
    }
  }
  if (!events_out.empty()) {
    // The meta pairs deliberately exclude anything thread- or
    // machine-dependent: the file is byte-identical for every --threads N.
    Status st = obs::WriteEventsFile(event_log, events_out,
                                     {{"tool", "gnnpart_cli"},
                                      {"graph", pos[0]},
                                      {"partitioner", name},
                                      {"k", std::to_string(k)},
                                      {"seed", std::to_string(seed)}});
    if (!st.ok()) return Fail(st);
    size_t records = event_log.run_events().size();
    for (const obs::EpochEvents& ep : event_log.epochs()) {
      records += ep.events.size();
    }
    std::cout << "events: " << events_out << " (" << records << " records, "
              << event_log.links().size() << " links, "
              << event_log.epochs().size() << " epoch(s))\n";
  }
  if (events == nullptr) return 0;
  const obs::EpochEvents& epoch = event_log.epochs().back();
  if (!trace_out.empty()) {
    Status st = trace::WriteTraceFile(epoch, trace_out);
    if (!st.ok()) return Fail(st);
    std::cout << "trace: " << trace_out << " (" << SpanCount(epoch)
              << " spans, " << epoch.steps << " steps, " << epoch.workers
              << " workers)\n";
  }
  if (netcfg.overlap || mode == SimMode::kNetReport) {
    const net::OverlapReport overlap = net::ComputeOverlap(epoch);
    if (Status st = check::ValidateOverlapReport(epoch, overlap);
        !st.ok()) {
      return Fail(st);
    }
    net::RecordOverlapMetrics(overlap);
    const double pct = overlap.bsp_epoch_seconds > 0
                           ? 100.0 * overlap.hidden_seconds /
                                 overlap.bsp_epoch_seconds
                           : 0.0;
    std::cout << "overlap: bsp " << overlap.bsp_epoch_seconds * 1e3
              << " ms, pipelined " << overlap.pipelined_epoch_seconds * 1e3
              << " ms, hidden " << overlap.hidden_seconds * 1e3 << " ms ("
              << TablePrinter::Fmt(pct, 1) << "% of bsp)\n";
    if (mode == SimMode::kNetReport) {
      if (Status st = check::ValidateFlowConservation(fabric, usage);
          !st.ok()) {
        return Fail(st);
      }
      net::RecordUsageMetrics(fabric, usage);
      // The event log's link time series yields per-link peak and p99
      // utilization (time-weighted, idle time included) on top of the
      // aggregate byte/busy accounting.
      Result<trace::ExplainReport> xr = trace::ComputeExplain(event_log);
      if (!xr.ok()) return Fail(xr.status());
      std::vector<double> peak(fabric.links().size(), 0.0);
      std::vector<double> p99(fabric.links().size(), 0.0);
      for (const trace::LinkContention& lc : xr->links) {
        peak[static_cast<size_t>(lc.link)] = lc.peak_utilization;
        p99[static_cast<size_t>(lc.link)] = lc.p99_utilization;
      }
      std::cout << "\n--- network: " << netcfg.Summary() << " ---\n";
      const double epoch_end = trace::EpochEnd(epoch);
      TablePrinter links({"link", "MB", "busy ms", "util %", "peak %",
                          "p99 %"});
      for (size_t l = 0; l < fabric.links().size(); ++l) {
        const double busy = usage.link_busy_seconds[l];
        links.AddRow({fabric.links()[l].name,
                      TablePrinter::Fmt(usage.link_bytes[l] / 1e6, 2),
                      TablePrinter::Fmt(busy * 1e3, 3),
                      TablePrinter::Fmt(
                          epoch_end > 0 ? 100.0 * busy / epoch_end : 0.0,
                          1),
                      TablePrinter::Fmt(100.0 * peak[l], 1),
                      TablePrinter::Fmt(100.0 * p99[l], 1)});
      }
      links.Print(std::cout);
      std::cout << "\n--- overlap-adjusted straggler blame ---\n";
      const std::vector<trace::WorkerBlame> bsp_blame =
          trace::ComputeWorkerBlame(epoch);
      TablePrinter blame(
          {"worker", "bsp blame ms", "pipelined blame ms", "comm ms",
           "compute ms"});
      for (uint32_t w = 0; w < epoch.workers; ++w) {
        blame.AddRow(
            {std::to_string(w),
             TablePrinter::Fmt(bsp_blame[w].total_blame() * 1e3, 3),
             TablePrinter::Fmt(overlap.worker_pipelined_blame[w] * 1e3, 3),
             TablePrinter::Fmt(overlap.worker_comm_seconds[w] * 1e3, 3),
             TablePrinter::Fmt(overlap.worker_compute_seconds[w] * 1e3, 3)});
      }
      blame.Print(std::cout);
    }
  }
  if (mode == SimMode::kTraceReport) {
    std::cout << "\n--- critical path (straggler-summed, per phase) ---\n";
    trace::CriticalPathTable(epoch).Print(std::cout);
    std::cout << "\n--- per-worker straggler blame ---\n";
    trace::BlameTable(epoch).Print(std::cout);
    std::cout << "\n--- most expensive steps ---\n";
    trace::TopStepsTable(epoch).Print(std::cout);
  }
  if (mode == SimMode::kExplain) {
    return FinishExplain(event_log, args);
  }
  return 0;
}


/// Dynamic-graph run (DESIGN.md §12): grow the graph in deterministic
/// batches, incrementally assign arrivals, repartition when a trigger
/// fires, price the migration diff through the fabric, and simulate
/// training epochs per interval. Prints one row per interval plus the
/// cumulative decayed-quality-vs-migration summary. With
/// --growth-batches 0 and both triggers off, the epoch report is
/// bit-identical to the static 'simulate' pipeline.
int CmdDynRun(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(
      args,
      {{"--growth-batches", true},
       {"--initial-fraction", true},
       {"--epochs-per-batch", true},
       {"--repartition-every", true},
       {"--rf-threshold", true},
       {"--migration-penalty", true},
       {"--feature", true},
       {"--hidden", true},
       {"--layers", true},
       {"--gbs", true},
       {"--directed", false},
       {"--seed", true},
       {"--trace-out", true},
       {"--events-out", true},
       {"--topology", true},
       {"--oversubscription", true},
       {"--rack-size", true},
       {"--nic-gbps", true},
       {"--overlap", true}},
      3, 3);
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  PartitionId k = ParseK(pos[2]);

  dyn::DynPartitionerSpec spec;
  const std::string& name = pos[1];
  if (Result<EdgePartitionerId> id = ParseEdgePartitionerName(name); id.ok()) {
    spec.vertex_mode = false;
    spec.edge = *id;
    spec.display = MakeEdgePartitioner(*id)->name();
  } else {
    std::string lookup =
        !name.empty() && name[0] == 'v' ? name.substr(1) : name;
    Result<VertexPartitionerId> vid = ParseVertexPartitionerName(lookup);
    if (!vid.ok()) return Fail(vid.status());
    spec.vertex_mode = true;
    spec.vertex = *vid;
    spec.display = "v" + MakeVertexPartitioner(*vid)->name();
  }

  dyn::DynConfig config;
  config.growth_batches = static_cast<size_t>(
      NonNegativeFlagValue(args, "--growth-batches", 8, 4096));
  // The percentage flags are genuinely fractional (e.g. --rf-threshold
  // 2.5) and go through the shared ParsePositiveDouble path.
  config.initial_fraction =
      DoubleFlagValue(args, "--initial-fraction", 50.0, 100.0) / 100.0;
  config.epochs_per_batch =
      static_cast<size_t>(FlagValue(args, "--epochs-per-batch", 1, 1024));
  config.repartition_every = static_cast<size_t>(
      NonNegativeFlagValue(args, "--repartition-every", 0, 4096));
  config.quality_threshold =
      NonNegativeDoubleFlagValue(args, "--rf-threshold", 0.0, 10000.0) / 100.0;
  config.stay_bonus =
      NonNegativeDoubleFlagValue(args, "--migration-penalty", 50.0,
                                 1000000.0) /
      100.0;
  config.gnn.feature_size =
      static_cast<size_t>(FlagValue(args, "--feature", 64));
  config.gnn.hidden_dim = static_cast<size_t>(FlagValue(args, "--hidden", 64));
  config.gnn.num_layers = static_cast<int>(FlagValue(args, "--layers", 3));
  config.gnn.num_classes = 16;
  config.gnn.fanouts = GnnConfig::DefaultFanouts(config.gnn.num_layers);
  config.gnn.global_batch_size =
      static_cast<size_t>(FlagValue(args, "--gbs", 256));
  config.seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  config.cluster.num_machines = static_cast<int>(k);
  config.network = ParseNetworkConfig(args, config.cluster);
  config.metrics_prefix = "dyn/" + spec.display;

  const std::string trace_out = StringFlagValue(args, "--trace-out");
  const std::string events_out = StringFlagValue(args, "--events-out");
  // The trace file exports the final batch's epoch of the event log.
  obs::EventLog event_log;
  obs::EventLog* events =
      (trace_out.empty() && events_out.empty()) ? nullptr : &event_log;

  Result<dyn::DynReport> report =
      dyn::RunDynamic(*graph, spec, k, config, events);
  if (!report.ok()) return Fail(report.status());

  TablePrinter table({"batch", "edges", "vertices",
                      spec.vertex_mode ? "cut" : "rf", "balance", "repart",
                      "moved", "migr MB", "migr ms", "epoch ms"});
  for (const dyn::DynInterval& iv : report->intervals) {
    table.AddRow({std::to_string(iv.batch), std::to_string(iv.arrived_edges),
                  std::to_string(iv.arrived_vertices),
                  TablePrinter::Fmt(iv.quality, 4),
                  TablePrinter::Fmt(iv.balance, 4),
                  iv.repartitioned ? "yes" : "-",
                  std::to_string(iv.moved_entities),
                  TablePrinter::Fmt(iv.migration_bytes / 1e6, 3),
                  TablePrinter::Fmt(iv.migration_seconds * 1e3, 3),
                  TablePrinter::Fmt(iv.epoch_seconds * 1e3, 3)});
  }
  table.Print(std::cout);
  std::cout << spec.display << " k=" << k << ": " << report->repartitions
            << " repartitions, moved " << report->total_moved_entities
            << " entities (+" << report->total_replicas_created
            << " replicas), migration "
            << report->total_migration_bytes / 1e6 << " MB / "
            << report->total_migration_seconds * 1e3 << " ms, epochs "
            << report->total_epoch_seconds * 1e3 << " ms, total cost "
            << report->total_cost_seconds * 1e3 << " ms, final "
            << (spec.vertex_mode ? "cut " : "rf ")
            << TablePrinter::Fmt(report->final_quality, 4) << "\n";

  if (events != nullptr) {
    if (Status st = check::ValidateEventLog(event_log); !st.ok()) {
      return Fail(st);
    }
    if (Status st = check::CheckEventAttribution(event_log); !st.ok()) {
      return Fail(st);
    }
  }
  if (!events_out.empty()) {
    Status st = obs::WriteEventsFile(
        event_log, events_out,
        {{"tool", "gnnpart_cli"},
         {"graph", pos[0]},
         {"partitioner", spec.display},
         {"k", std::to_string(k)},
         {"seed", std::to_string(config.seed)}});
    if (!st.ok()) return Fail(st);
    size_t records = event_log.run_events().size();
    for (const obs::EpochEvents& ep : event_log.epochs()) {
      records += ep.events.size();
    }
    std::cout << "events: " << events_out << " (" << records << " records, "
              << event_log.links().size() << " links, "
              << event_log.epochs().size() << " epoch(s))\n";
  }
  if (!trace_out.empty()) {
    const obs::EpochEvents& epoch = event_log.epochs().back();
    Status st = trace::WriteTraceFile(epoch, trace_out);
    if (!st.ok()) return Fail(st);
    std::cout << "trace: " << trace_out << " (" << SpanCount(epoch)
              << " spans)\n";
  }
  return 0;
}

/// Multi-tenant inference serving run (DESIGN.md §15): generate an
/// open-loop request trace, batch per partition, price sampling RPCs and
/// feature fetches as weighted flows on the shared fabric — optionally
/// against a co-tenant training epoch replay — and report tail latency
/// with a queue/compute/network/congestion breakdown. Every printed number
/// is simulated and byte-identical for every --threads N.
int CmdServeRun(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(
      args,
      {{"--arrival-rate", true},
       {"--duration", true},
       {"--batch-size", true},
       {"--batch-wait", true},
       {"--serve-weight", true},
       {"--cotenant", false},
       {"--feature", true},
       {"--hidden", true},
       {"--layers", true},
       {"--gbs", true},
       {"--directed", false},
       {"--seed", true},
       {"--events-out", true},
       {"--topology", true},
       {"--oversubscription", true},
       {"--rack-size", true},
       {"--nic-gbps", true}},
      3, 3);
  Result<Graph> graph = LoadGraph(pos[0], HasFlag(args, "--directed"));
  if (!graph.ok()) return Fail(graph.status());
  PartitionId k = ParseK(pos[2]);
  const std::string& name = pos[1];

  serve::ServeConfig config;
  config.workload.arrival_rate =
      DoubleFlagValue(args, "--arrival-rate", 200.0, 1e9);
  config.workload.duration = DoubleFlagValue(args, "--duration", 1.0, 1e6);
  config.batch.max_batch =
      static_cast<size_t>(FlagValue(args, "--batch-size", 8, 1 << 20));
  config.batch.max_wait =
      NonNegativeDoubleFlagValue(args, "--batch-wait", 0.002, 3600.0);
  config.serve_weight = DoubleFlagValue(args, "--serve-weight", 4.0, 1024.0);
  config.cotenant = HasFlag(args, "--cotenant");
  config.seed = static_cast<uint64_t>(FlagValue(args, "--seed", 42));
  config.workload.seed = config.seed;
  config.gnn.feature_size =
      static_cast<size_t>(FlagValue(args, "--feature", 64));
  config.gnn.hidden_dim = static_cast<size_t>(FlagValue(args, "--hidden", 64));
  config.gnn.num_layers = static_cast<int>(FlagValue(args, "--layers", 3));
  config.gnn.num_classes = 16;
  config.gnn.fanouts = GnnConfig::DefaultFanouts(config.gnn.num_layers);
  config.gnn.global_batch_size =
      static_cast<size_t>(FlagValue(args, "--gbs", 256));
  config.cluster.num_machines = static_cast<int>(k);
  config.network = ParseNetworkConfig(args, config.cluster);
  config.metrics_prefix = "serve/" + name;

  // Vertex partitioners own vertices directly; edge (vertex-cut)
  // partitioners serve each vertex from the partition holding most of its
  // incident edges (DeriveVertexOwnership), so all 12 compare on the same
  // footing.
  VertexPartitioning owners;
  uint64_t part_seed = config.seed;
  if (Result<EdgePartitionerId> id = ParseEdgePartitionerName(name); id.ok()) {
    Result<EdgePartitioning> parts =
        MakeEdgePartitioner(*id)->Partition(*graph, k, part_seed);
    if (!parts.ok()) return Fail(parts.status());
    owners = serve::DeriveVertexOwnership(*graph, *parts);
  } else {
    std::string lookup =
        !name.empty() && name[0] == 'v' ? name.substr(1) : name;
    Result<VertexPartitionerId> vid = ParseVertexPartitionerName(lookup);
    if (!vid.ok()) return Fail(vid.status());
    VertexSplit split =
        VertexSplit::MakeRandom(graph->num_vertices(), 0.1, 0.1, part_seed);
    Result<VertexPartitioning> parts =
        MakeVertexPartitioner(*vid)->Partition(*graph, split, k, part_seed);
    if (!parts.ok()) return Fail(parts.status());
    owners = std::move(*parts);
  }

  const std::string events_out = StringFlagValue(args, "--events-out");
  obs::EventLog event_log;
  obs::EventLog* events = events_out.empty() ? nullptr : &event_log;
  Result<serve::ServeReport> report =
      serve::RunServe(*graph, owners, config, events);
  if (!report.ok()) return Fail(report.status());

  std::cout << name << " k=" << k << ": " << report->requests
            << " requests in " << report->batches << " batches (mean "
            << TablePrinter::Fmt(report->mean_batch_size, 2) << "/batch)"
            << (config.cotenant
                    ? ", co-tenant " + std::to_string(report->cotenant_steps) +
                          " training steps"
                    : std::string())
            << "\n";
  std::cout << "latency ms: p50 " << TablePrinter::Fmt(report->latency.p50 * 1e3, 3)
            << "  p95 " << TablePrinter::Fmt(report->latency.p95 * 1e3, 3)
            << "  p99 " << TablePrinter::Fmt(report->latency.p99 * 1e3, 3)
            << "  max " << TablePrinter::Fmt(report->latency.max * 1e3, 3)
            << "  mean " << TablePrinter::Fmt(report->latency.mean * 1e3, 3)
            << "\n";
  std::cout << "breakdown s: queue "
            << TablePrinter::Fmt(report->queue_seconds, 4) << "  compute "
            << TablePrinter::Fmt(report->compute_seconds, 4) << "  network "
            << TablePrinter::Fmt(report->network_seconds, 4) << "  congestion "
            << TablePrinter::Fmt(report->congestion_seconds, 4) << "  bytes "
            << TablePrinter::Fmt(report->network_bytes / 1e6, 3) << " MB\n";

  if (events != nullptr) {
    if (Status st = check::ValidateEventLog(event_log); !st.ok()) {
      return Fail(st);
    }
    if (Status st = check::CheckEventAttribution(event_log); !st.ok()) {
      return Fail(st);
    }
    Status st = obs::WriteEventsFile(event_log, events_out,
                                     {{"tool", "gnnpart_cli"},
                                      {"graph", pos[0]},
                                      {"partitioner", name},
                                      {"k", std::to_string(k)},
                                      {"seed", std::to_string(config.seed)}});
    if (!st.ok()) return Fail(st);
    size_t records = event_log.run_events().size();
    for (const obs::EpochEvents& ep : event_log.epochs()) {
      records += ep.events.size();
    }
    std::cout << "events: " << events_out << " (" << records << " records, "
              << event_log.links().size() << " links, "
              << event_log.epochs().size() << " epoch(s))\n";
  }
  return 0;
}

/// Pretty-prints a run manifest written by --metrics-out. Parsing goes
/// through the strict loader, so this doubles as a manifest validator.
int CmdMetrics(const std::vector<std::string>& args) {
  std::vector<std::string> pos = Positionals(args, {}, 1, 1);
  Result<obs::Manifest> manifest = obs::LoadManifestFile(pos[0]);
  if (!manifest.ok()) return Fail(manifest.status());
  for (const auto& [key, value] : manifest->meta) {
    std::cout << key << "=" << value << "  ";
  }
  if (!manifest->meta.empty()) std::cout << "\n\n";
  TablePrinter table({"metric", "kind", "det", "value", "unit"});
  for (const obs::MetricRow& row : manifest->rows) {
    std::string value;
    switch (row.kind) {
      case obs::MetricKind::kCounter:
        value = std::to_string(row.value);
        break;
      case obs::MetricKind::kGauge:
        value = std::to_string(row.level);
        break;
      case obs::MetricKind::kHistogram:
        value = std::to_string(row.count) + " obs, sum " +
                std::to_string(row.sum);
        break;
      case obs::MetricKind::kTimer:
        value = TablePrinter::Fmt(row.seconds * 1e3, 3) + " ms / " +
                std::to_string(row.count);
        break;
    }
    table.AddRow({row.name, obs::MetricKindName(row.kind),
                  row.deterministic ? "yes" : "no", value, row.unit});
  }
  table.Print(std::cout);
  return 0;
}

int CmdSimulate(const std::vector<std::string>& args) {
  return RunSimulation(args, SimMode::kSimulate);
}

int CmdTraceReport(const std::vector<std::string>& args) {
  return RunSimulation(args, SimMode::kTraceReport);
}

int CmdNetReport(const std::vector<std::string>& args) {
  return RunSimulation(args, SimMode::kNetReport);
}

int CmdExplain(const std::vector<std::string>& args) {
  return RunSimulation(args, SimMode::kExplain);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // Strip the global flags before dispatching; they may appear before or
  // after the subcommand. --threads sizes the worker pool (results do not
  // depend on the thread count); --metrics-out enables phase timing and
  // writes the run manifest at exit.
  std::string metrics_out;
  int threads = 0;
  for (size_t i = 0; i < args.size();) {
    if (args[i] == "--threads") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: --threads requires a value\n";
        return Usage();
      }
      const int v = ParseThreadCount(args[i + 1].c_str());
      if (v < 1) {
        std::cerr << "error: invalid --threads value '" << args[i + 1]
                  << "' (expected a positive integer)\n";
        return Usage();
      }
      threads = v;
      SetDefaultThreads(v);
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      continue;
    }
    if (args[i] == "--metrics-out") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: --metrics-out requires a value\n";
        return Usage();
      }
      metrics_out = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      continue;
    }
    ++i;
  }
  if (args.empty()) return Usage();
  const std::string cmd = args[0];
  args.erase(args.begin());
  if (!metrics_out.empty()) obs::EnableTiming(true);

  int rc;
  if (cmd == "generate") rc = CmdGenerate(args);
  else if (cmd == "info") rc = CmdInfo(args);
  else if (cmd == "partition") rc = CmdPartition(args);
  else if (cmd == "check") rc = CmdCheck(args);
  else if (cmd == "simulate") rc = CmdSimulate(args);
  else if (cmd == "trace-report") rc = CmdTraceReport(args);
  else if (cmd == "net-report") rc = CmdNetReport(args);
  else if (cmd == "explain") rc = CmdExplain(args);
  else if (cmd == "dyn-run") rc = CmdDynRun(args);
  else if (cmd == "serve-run") rc = CmdServeRun(args);
  else if (cmd == "metrics") rc = CmdMetrics(args);
  else {
    std::cerr << "error: unknown subcommand '" << cmd << "'\n";
    return Usage();
  }
  if (!metrics_out.empty()) {
    Status st = obs::WriteManifestFile(
        metrics_out,
        {{"tool", "gnnpart_cli"},
         {"command", cmd},
         {"threads", threads > 0 ? std::to_string(threads) : "auto"}});
    if (!st.ok()) return Fail(st);
    std::cerr << "[gnnpart] metrics manifest: " << metrics_out << "\n";
  }
  return rc;
}
