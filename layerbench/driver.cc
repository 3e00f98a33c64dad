// In-process layer benchmark for gnnpart (see NOTES.md).
//
//   layerbench_driver generate --workload W --seed N --work-dir D
//   layerbench_driver run --workload W --seed N --seconds S --trace 0|1
//       --work-dir D --references FILE
//
// `generate` writes the workload's input graph into D/inputs, keyed by
// (dataset, scale, seed); it is a separate process so that generation does
// not count towards the run's peak RSS. `run` alternates a batch of
// set-ups (input load plus fixed preparation) with the workload's round —
// a fixed list of calls into the libraries' public functions — until S
// seconds have run. Every call is timed with a steady clock and checked,
// untimed, afterwards. With --trace 1, every other round also records a
// span per call and obs::Snapshot() counter deltas; spans are written to D
// at exit.
// The last stdout line is one JSON object with the run's metrics.
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/validators.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/status.h"
#include "gen/datasets.h"
#include "gnn/model_config.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/split.h"
#include "metrics/partition_metrics.h"
#include "net/topology.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "partition/edge/registry.h"
#include "partition/partitioning.h"
#include "partition/vertex/registry.h"
#include "serve/batcher.h"
#include "serve/serve.h"
#include "serve/workload.h"
#include "sim/cluster.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"

using namespace gnnpart;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).median; }

// ---------------------------------------------------------------------------
// Workload inputs.

struct WorkloadSpec {
  const char* name;
  double scale;  // OR substitute scale (gen::MakeDataset)
  bool text;     // true: text edge list, false: .bin snapshot
  int setups_per_round;  // set-ups timed before each round
};

const WorkloadSpec kWorkloads[] = {
    {"edge-stream", 5.0, true, 2},
    {"vertex-minibatch", 1.0, false, 6},
    {"serve-contended", 1.0, false, 6},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string InputPath(const std::string& work_dir, const WorkloadSpec& w,
                      uint64_t seed) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/inputs/OR-s%g-r%" PRIu64 ".%s", w.scale,
                seed, w.text ? "txt" : "bin");
  return work_dir + buf;
}

int Generate(const WorkloadSpec& w, uint64_t seed, const std::string& dir) {
  const std::string path = InputPath(dir, w, seed);
  if (std::filesystem::exists(path)) {
    // Reused: mark it recently used, so pruning keeps it.
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now());
    return 0;
  }
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  Result<Graph> graph = MakeDataset(DatasetId::kOrkut, w.scale, seed);
  if (!graph.ok()) {
    std::fprintf(stderr, "generate: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string tmp = path + ".tmp";
  const Status st = w.text ? WriteEdgeListFile(*graph, tmp)
                           : WriteBinaryGraph(*graph, tmp);
  if (!st.ok()) {
    std::fprintf(stderr, "generate: %s\n", st.ToString().c_str());
    return 1;
  }
  std::filesystem::rename(tmp, path);  // readers never see a partial file
  return 0;
}

// ---------------------------------------------------------------------------
// Digests: exact, so a repetition or a reference either matches or not.

uint64_t Fnv(const void* data, size_t bytes, uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
uint64_t HashVector(const std::vector<T>& v) {
  return Fnv(v.data(), v.size() * sizeof(T));
}

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

/// Result of one untimed correctness check: the validators' verdict and a
/// digest of the output (hex floats, so equality is bit-exact).
struct Verdict {
  Status status;
  std::string digest;
};

// ---------------------------------------------------------------------------
// Timing, spans and checks.

struct Span {
  std::string name;
  std::string metric;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into the span list; -1 for roots
  int round = -1;   // -1: set-up
  std::map<std::string, uint64_t> counts;
};

/// obs counters watched around traced calls: registry name, per-layer
/// metric, and the metric-name prefix of the calls whose deltas count.
struct Watched {
  const char* counter;
  const char* metric;
  const char* call_prefix;
};

const Watched kWatched[] = {
    {"partition/vertex/multilevel/v_cycles",
     "partition.vertex.multilevel.v_cycles", "partition.vertex."},
    {"partition/vertex/multilevel/refine_moves",
     "partition.vertex.multilevel.refine_moves", "partition.vertex."},
    {"sampler/neighbor/sampled_edges", "sampling.sampled_edges", "sampling."},
    {"sampler/neighbor/remote_requests", "sampling.remote_requests",
     "sampling."},
    {"layerbench/serve/requests", "serve.requests", "serve."},
    {"layerbench/serve/batches", "serve.batches", "serve."},
    {"net/flows", "net.flows", ""},
    {"net/phases", "net.phases", ""},
};

std::map<std::string, uint64_t> WatchedCounters() {
  std::map<std::string, uint64_t> out;
  for (const Watched& w : kWatched) out[w.counter] = 0;  // not yet registered
  for (const obs::MetricRow& row : obs::Snapshot().rows) {
    for (const Watched& w : kWatched) {
      if (row.name == w.counter) out[w.counter] = row.value;
    }
  }
  return out;
}

/// Per-round totals: seconds per per-layer metric, counter deltas, the
/// round's wall time (sum of its timed calls; checks excluded) and, in a
/// traced round, the time the tracing bookkeeping around those calls took.
struct RoundStats {
  bool traced = false;
  double wall = 0;
  double check = 0;
  double trace = 0;
  std::map<std::string, double> seconds;
  std::map<std::string, uint64_t> counts;
};

class Bench {
 public:
  Bench(uint64_t seed, std::map<std::string, std::string> references)
      : seed_(seed), references_(std::move(references)) {}

  /// Starts a round; `traced` rounds record spans and counter deltas.
  void BeginRound(int round, bool traced) {
    round_ = round;
    stats_ = RoundStats{};
    stats_.traced = traced;
    if (traced) parent_ = OpenSpan(round < 0 ? "setup" : "round", "", round);
  }

  RoundStats EndRound() {
    if (parent_ >= 0) spans_[parent_].end = Now();
    parent_ = -1;
    return stats_;
  }

  /// Times one call into a public library function. `metric` is the
  /// per-layer metric its seconds count towards; `span` names the call.
  template <typename Fn>
  auto Call(const std::string& span, const std::string& metric, Fn&& fn) {
    ++attempted_;
    const bool traced = stats_.traced;
    const double outer_start = traced ? Now() : 0;
    std::map<std::string, uint64_t> before;
    if (traced) before = WatchedCounters();
    const double start = Now();
    auto result = fn();
    const double end = Now();
    stats_.wall += end - start;
    stats_.seconds[metric] += end - start;
    last_seconds_ = end - start;
    if (traced) {
      const std::map<std::string, uint64_t> after = WatchedCounters();
      Span s{span, metric, start, end, parent_, round_, {}};
      for (const Watched& w : kWatched) {
        const uint64_t delta = after.at(w.counter) - before.at(w.counter);
        if (delta == 0) continue;
        s.counts[w.counter] = delta;
        if (metric.rfind(w.call_prefix, 0) == 0) stats_.counts[w.metric] += delta;
      }
      spans_.push_back(std::move(s));
      stats_.trace += (Now() - outer_start) - (end - start);
    }
    return result;
  }

  double last_seconds() const { return last_seconds_; }

  /// Untimed correctness gate for the call named `key`: the validators
  /// must pass, and the digest must equal every earlier repetition's and
  /// the stored reference for this seed, when there is one.
  void Check(const std::string& key, const std::function<Verdict()>& fn) {
    const double start = Now();
    Verdict v = fn();
    std::string failure;
    if (!v.status.ok()) {
      failure = v.status.ToString();
    } else {
      auto [it, inserted] = first_digest_.emplace(key, v.digest);
      if (!inserted && it->second != v.digest) {
        failure = "digest/repeat: " + v.digest + " != " + it->second;
      } else if (auto ref = references_.find(key);
                 ref != references_.end() && ref->second != v.digest) {
        failure = "digest/reference: " + v.digest + " != " + ref->second;
      }
    }
    if (!failure.empty()) Fail(key, failure);
    const double end = Now();
    stats_.check += end - start;
    if (stats_.traced) {
      spans_.push_back(Span{"check/" + key, "check.validate_s", start, end,
                            parent_, round_, {}});
    }
  }

  void Fail(const std::string& key, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "FAIL %s: %s\n", key.c_str(), why.c_str());
  }

  uint64_t seed() const { return seed_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Digests of the first repetition of every call, in key order.
  const std::map<std::string, std::string>& digests() const {
    return first_digest_;
  }

 private:
  int OpenSpan(const std::string& name, const std::string& metric, int round) {
    spans_.push_back(Span{name, metric, Now(), 0, -1, round, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  uint64_t seed_;
  std::map<std::string, std::string> references_;
  std::map<std::string, std::string> first_digest_;
  std::vector<Span> spans_;
  RoundStats stats_;
  int round_ = -1;
  int parent_ = -1;
  double last_seconds_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads. Each has a set-up (load + fixed preparation, repeated for
// setup_s) and a round (the calls repeated for wall_s).

constexpr PartitionId kStudyK = 32;
constexpr PartitionId kServeK = 8;
constexpr size_t kGlobalBatch = 256;

GnnConfig TrainingConfig(int layers) {
  GnnConfig config;
  config.num_layers = layers;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(layers);
  config.global_batch_size = kGlobalBatch;
  return config;
}

ClusterSpec Cluster(PartitionId machines) {
  ClusterSpec cluster;
  cluster.num_machines = static_cast<int>(machines);
  return cluster;
}

Verdict GraphVerdict(const Graph& g) {
  return {check::ValidateGraph(g),
          Fmt("V=%zu E=%zu edges=%016" PRIx64, g.num_vertices(), g.num_edges(),
              HashVector(g.edges()))};
}

/// Loaded input plus the workload's fixed preparation.
struct Prepared {
  Graph graph;
  VertexSplit split;
  VertexPartitioning owners;  // serve-contended only
};

class Workload {
 public:
  Workload(const WorkloadSpec& spec, std::string path, Bench* bench)
      : spec_(spec), path_(std::move(path)), b_(*bench) {}

  /// One set-up: load the input, then the fixed preparation. Returns its
  /// seconds (load + preparation), or nullopt on failure.
  std::optional<double> SetUp() {
    in_.reset();  // never hold two graphs at once
    const std::string load = spec_.text ? "ReadEdgeListFile" : "ReadBinaryGraph";
    Result<Graph> graph = b_.Call(
        load, spec_.text ? "graph.read_text_s" : "graph.read_binary_s", [&] {
          return spec_.text ? ReadEdgeListFile(path_, /*directed=*/false)
                            : ReadBinaryGraph(path_);
        });
    double seconds = b_.last_seconds();
    load_seconds_.push_back(seconds);
    if (!graph.ok()) {
      b_.Fail(load, graph.status().ToString());
      return std::nullopt;
    }
    b_.Check(load, [&] { return GraphVerdict(*graph); });
    in_ = std::make_unique<Prepared>();
    in_->graph = std::move(graph).value();
    if (spec_.text) return seconds;

    in_->split = b_.Call("VertexSplit::MakeRandom", "setup.prepare_s", [&] {
      return VertexSplit::MakeRandom(in_->graph.num_vertices(), 0.1, 0.1,
                                     b_.seed());
    });
    seconds += b_.last_seconds();
    b_.Check("VertexSplit::MakeRandom", [&] {
      return Verdict{Status::Ok(),
                     Fmt("train=%016" PRIx64,
                         HashVector(in_->split.train_vertices()))};
    });
    if (std::string(spec_.name) != "serve-contended") return seconds;

    Result<VertexPartitioning> owners =
        b_.Call("Partition/LDG-k8", "setup.prepare_s", [&] {
          return MakeVertexPartitioner(VertexPartitionerId::kLdg)
              ->Partition(in_->graph, in_->split, kServeK, b_.seed());
        });
    seconds += b_.last_seconds();
    if (!owners.ok()) {
      b_.Fail("Partition/LDG-k8", owners.status().ToString());
      return std::nullopt;
    }
    in_->owners = std::move(owners).value();
    b_.Check("Partition/LDG-k8", [&] {
      return Verdict{check::ValidateVertexPartitioning(in_->graph, in_->owners),
                     Fmt("assign=%016" PRIx64,
                         HashVector(in_->owners.assignment))};
    });
    return seconds;
  }

  void Round() {
    const std::string name = spec_.name;
    if (name == "edge-stream") {
      EdgeStreamRound();
    } else if (name == "vertex-minibatch") {
      VertexMinibatchRound();
    } else {
      ServeContendedRound();
    }
  }

  const Graph& graph() const { return in_->graph; }
  const std::vector<double>& load_seconds() const { return load_seconds_; }

 private:
  void EdgeStreamRound() {
    const Graph& g = in_->graph;
    const GnnConfig config = TrainingConfig(3);
    const ClusterSpec cluster = Cluster(kStudyK);
    for (EdgePartitionerId id : AllEdgePartitioners()) {
      const std::unique_ptr<EdgePartitioner> p = MakeEdgePartitioner(id);
      const std::string pname = p->name();
      const std::string key = "Partition/" + pname;
      Result<EdgePartitioning> parts =
          b_.Call(key, "partition.edge." + pname + "_s",
                  [&] { return p->Partition(g, kStudyK, b_.seed()); });
      if (!parts.ok()) {
        b_.Fail(key, parts.status().ToString());
        continue;
      }
      b_.Check(key, [&] {
        return Verdict{check::ValidateEdgePartitioning(g, *parts),
                       Fmt("assign=%016" PRIx64, HashVector(parts->assignment))};
      });

      const std::string mkey = "ComputeEdgePartitionMetrics/" + pname;
      const EdgePartitionMetrics m = b_.Call(
          mkey, "metrics.edge_s", [&] { return ComputeEdgePartitionMetrics(g, *parts); });
      b_.Check(mkey, [&] {
        return Verdict{check::CheckEdgeMetrics(g, *parts, m),
                       Fmt("rf=%a edge_balance=%a", m.replication_factor,
                           m.edge_balance)};
      });

      const DistGnnWorkload workload =
          b_.Call("BuildDistGnnWorkload/" + pname, "sim.distgnn_s",
                  [&] { return BuildDistGnnWorkload(g, *parts); });
      const std::string skey = "SimulateDistGnnEpoch/" + pname;
      const DistGnnEpochReport report = b_.Call(skey, "sim.distgnn_s", [&] {
        return SimulateDistGnnEpoch(workload, config, cluster);
      });
      b_.Check(skey, [&] {
        const bool sane = report.epoch_seconds > 0 &&
                          workload.replication_factor == m.replication_factor;
        return Verdict{sane ? Status::Ok()
                            : Status::Internal("sim/distgnn-epoch: non-positive "
                                               "epoch or RF disagrees with metrics"),
                       Fmt("epoch=%a bytes=%a", report.epoch_seconds,
                           report.total_network_bytes)};
      });
    }
  }

  void VertexMinibatchRound() {
    const Graph& g = in_->graph;
    const VertexSplit& split = in_->split;
    const ClusterSpec cluster = Cluster(kStudyK);
    for (VertexPartitionerId id : AllVertexPartitioners()) {
      const std::unique_ptr<VertexPartitioner> p = MakeVertexPartitioner(id);
      const std::string pname = p->name();
      const std::string key = "Partition/" + pname;
      Result<VertexPartitioning> parts =
          b_.Call(key, "partition.vertex." + pname + "_s",
                  [&] { return p->Partition(g, split, kStudyK, b_.seed()); });
      if (!parts.ok()) {
        b_.Fail(key, parts.status().ToString());
        continue;
      }
      b_.Check(key, [&] {
        return Verdict{check::ValidateVertexPartitioning(g, *parts),
                       Fmt("assign=%016" PRIx64, HashVector(parts->assignment))};
      });

      const std::string mkey = "ComputeVertexPartitionMetrics/" + pname;
      const VertexPartitionMetrics m = b_.Call(mkey, "metrics.vertex_s", [&] {
        return ComputeVertexPartitionMetrics(g, *parts, split);
      });
      b_.Check(mkey, [&] {
        return Verdict{check::CheckVertexMetrics(g, *parts, split, m),
                       Fmt("cut=%a balance=%a", m.edge_cut_ratio,
                           m.vertex_balance)};
      });

      for (int layers = 2; layers <= 4; ++layers) {
        const std::string tag = pname + "/L" + std::to_string(layers);
        const std::string pkey = "ProfileDistDglEpoch/" + tag;
        Result<DistDglEpochProfile> profile =
            b_.Call(pkey, "sampling.profile_s", [&] {
              return ProfileDistDglEpoch(
                  g, *parts, split, GnnConfig::DefaultFanouts(layers),
                  kGlobalBatch, b_.seed() + static_cast<uint64_t>(layers));
            });
        if (!profile.ok()) {
          b_.Fail(pkey, profile.status().ToString());
          continue;
        }
        b_.Check(pkey, [&] {
          return Verdict{check::ValidateProfile(*profile),
                         Fmt("steps=%zu edges=%" PRIu64 " remote=%" PRIu64,
                             profile->steps, profile->TotalComputationEdges(),
                             profile->TotalRemoteInputVertices())};
        });
        const GnnConfig config = TrainingConfig(layers);
        const std::string skey = "SimulateDistDglEpoch/" + tag;
        const DistDglEpochReport report = b_.Call(skey, "sim.distdgl_s", [&] {
          return SimulateDistDglEpoch(*profile, config, cluster);
        });
        b_.Check(skey, [&] {
          return Verdict{report.epoch_seconds > 0
                             ? Status::Ok()
                             : Status::Internal("sim/distdgl-epoch: "
                                                "non-positive epoch"),
                         Fmt("epoch=%a bytes=%a", report.epoch_seconds,
                             report.total_network_bytes)};
        });
      }
    }
  }

  void ServeContendedRound() {
    const Graph& g = in_->graph;
    const VertexPartitioning& owners = in_->owners;
    const net::TopologyKind topologies[] = {net::TopologyKind::kFatTree,
                                            net::TopologyKind::kRing};
    for (net::TopologyKind topology : topologies) {
      const serve::ServeConfig config = ServeConfigFor(topology);
      const std::string tag = net::TopologyName(topology);
      const std::string gkey = "GenerateRequests/" + tag;
      const std::vector<serve::ServeRequest> requests =
          b_.Call(gkey, "serve.generate_s",
                  [&] { return serve::GenerateRequests(config.workload, owners); });
      b_.Check(gkey, [&] {
        const std::string trace = serve::FormatRequestTrace(requests);
        return Verdict{
            check::ValidateServeRequests(requests, config.workload, owners),
            Fmt("requests=%zu trace=%016" PRIx64, requests.size(),
                Fnv(trace.data(), trace.size()))};
      });

      const std::string rkey = "RunServe/" + tag;
      Result<serve::ServeReport> report = b_.Call(
          rkey, "serve.run_s",
          [&] { return serve::RunServe(g, owners, config, nullptr); });
      if (!report.ok()) {
        b_.Fail(rkey, report.status().ToString());
        continue;
      }
      b_.Check(rkey, [&] {
        const std::vector<serve::ServeBatch> batches =
            serve::BatchRequests(requests, kServeK, config.batch);
        Status st = check::ValidateServeBatches(requests, batches, kServeK,
                                                config.batch);
        if (st.ok()) st = check::ValidateServeReport(requests, batches, *report);
        return Verdict{st, Fmt("batches=%" PRIu64 " p50=%a p99=%a cotenant=%" PRIu64,
                               report->batches, report->latency.p50,
                               report->latency.p99, report->cotenant_steps)};
      });
    }
  }

  /// fig-serve's high-load cell: 6000 req/s, over 0.5 simulated seconds on
  /// the 4:1 fat-tree and 0.25 s on the ring. On both, weight-4 serving
  /// flows compete with a weight-1 co-tenant training epoch.
  serve::ServeConfig ServeConfigFor(net::TopologyKind topology) const {
    serve::ServeConfig config;
    config.workload.arrival_rate = 6000.0;
    config.workload.duration = topology == net::TopologyKind::kRing ? 0.25 : 0.5;
    config.workload.seed = b_.seed();
    config.batch.max_batch = 8;
    config.batch.max_wait = 0.002;
    config.serve_weight = 4.0;
    config.cotenant = true;
    config.gnn.num_layers = 3;
    config.gnn.feature_size = 256;
    config.gnn.hidden_dim = 64;
    config.gnn.num_classes = 16;
    config.gnn.fanouts = GnnConfig::DefaultFanouts(3);
    config.gnn.global_batch_size = kGlobalBatch;
    config.cluster = Cluster(kServeK);
    config.network = net::NetworkConfig::FromCluster(config.cluster);
    config.network.topology = topology;
    if (topology == net::TopologyKind::kFatTree) {
      config.network.oversubscription = 4.0;
    }
    config.seed = b_.seed();
    config.metrics_prefix = "layerbench/serve";
    return config;
  }

  const WorkloadSpec& spec_;
  std::string path_;
  Bench& b_;
  std::unique_ptr<Prepared> in_;
  std::vector<double> load_seconds_;
};

// ---------------------------------------------------------------------------
// Reporting.

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

std::map<std::string, std::string> LoadReferences(const std::string& path,
                                                  const std::string& workload,
                                                  uint64_t seed) {
  // Lines: <workload> <seed> <call key> <digest...>
  std::map<std::string, std::string> refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char w[64], key[128];
    unsigned long long s = 0;
    int consumed = 0;
    if (std::sscanf(line.c_str(), "%63s %llu %127s %n", w, &s, key, &consumed) < 3) {
      continue;
    }
    if (workload == w && seed == s) refs[key] = line.substr(consumed);
  }
  return refs;
}

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir = ".bench_work";
  std::string references;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") return false;
      a->trace = std::string(v) == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else if (flag == "--references") {
      a->references = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return FindWorkload(a->workload) != nullptr && a->seconds > 0;
}

// One pool thread: on a VM, waking pool workers adds jitter that swamped
// the serve-contended round at 2 threads (see NOTES.md).
constexpr int kThreads = 1;

int Run(const Args& args, const WorkloadSpec& spec) {
  SetDefaultThreads(kThreads);
  const std::string path = InputPath(args.work_dir, spec, args.seed);
  std::error_code ec;
  const uintmax_t input_bytes = std::filesystem::file_size(path, ec);
  if (ec) {
    std::fprintf(stderr, "run: missing input %s (run `generate` first)\n",
                 path.c_str());
    return 1;
  }
  // Warm the page cache with an untimed raw read, so every timed load
  // starts from the same state.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> buf(1 << 20);
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size()))) {
    }
  }

  Bench bench(args.seed, LoadReferences(args.references, spec.name, args.seed));
  Workload workload(spec, path, &bench);

  // A batch of set-ups, then a round, repeated while another pair fits in
  // the measuring time. setup_s (median of load + preparation) and wall_s
  // (median round) thus sample the same stretch of time. In trace mode the
  // rounds alternate untraced/traced, so both medians come from one run.
  const size_t min_rounds = args.trace ? 4 : 3;
  std::vector<double> setups;
  std::vector<RoundStats> rounds;
  const double begin = Now();
  for (int r = 0;; ++r) {
    const double elapsed = Now() - begin;
    if (rounds.size() >= min_rounds &&
        elapsed * (1.0 + 1.0 / static_cast<double>(rounds.size())) >
            args.seconds) {
      break;
    }
    bench.BeginRound(-1, args.trace);
    for (int i = 0; i < spec.setups_per_round; ++i) {
      const std::optional<double> s = workload.SetUp();
      if (!s) {
        std::fprintf(stderr, "run: set-up failed\n");
        return 1;
      }
      setups.push_back(*s);
    }
    bench.EndRound();
    bench.BeginRound(r, args.trace && r % 2 == 1);
    workload.Round();
    rounds.push_back(bench.EndRound());
  }

  std::vector<double> plain_wall, traced_wall;
  for (const RoundStats& r : rounds) {
    (r.traced ? traced_wall : plain_wall).push_back(r.wall);
  }
  const Graph& g = workload.graph();
  const double peak_rss_mb = static_cast<double>(obs::PeakRssBytes()) / 1e6;
  const double error_rate =
      static_cast<double>(bench.failed()) / static_cast<double>(bench.attempted());

  const std::string meta = Fmt(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"nproc\": %u, "
      "\"threads\": %d, \"cpu\": \"%s\", \"build_type\": \"%s\", "
      "\"check_level\": \"%s\", \"vertices\": %zu, \"edges\": %zu, "
      "\"input_bytes\": %ju, \"setups\": %zu, \"rounds\": %zu}",
      spec.name, args.seed, std::thread::hardware_concurrency(), kThreads,
      JsonEscape(CpuModel()).c_str(), LAYERBENCH_BUILD_TYPE,
      LAYERBENCH_CHECK_LEVEL, g.num_vertices(), g.num_edges(), input_bytes,
      setups.size(), rounds.size());
  std::printf("meta %s\n", meta.c_str());
  std::printf("round wall_s:");
  for (const RoundStats& r : rounds) {
    std::printf(" %.4f%s", r.wall, r.traced ? "(traced)" : "");
  }
  std::printf("\nsetup_s:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");

  std::vector<Metric> e2e = {
      {"setup_s", Median(setups), "s", setups.size()},
      {"wall_s", Median(plain_wall), "s", plain_wall.size()},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
      {"error_rate", error_rate, "ratio", bench.attempted()},
  };
  std::printf("calls: attempted %" PRIu64 ", failed %" PRIu64 "\n",
              bench.attempted(), bench.failed());
  std::printf("%-44s %16s %-8s %s\n", "end-to-end metric", "value", "unit",
              "samples");
  for (const Metric& m : e2e) {
    std::printf("%-44s %16.6f %-8s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }

  std::vector<Metric> layers;
  if (args.trace) {
    std::vector<const RoundStats*> traced;
    for (const RoundStats& r : rounds) {
      if (r.traced) traced.push_back(&r);
    }
    auto median_of = [&](const std::function<double(const RoundStats&)>& f) {
      std::vector<double> v;
      for (const RoundStats* r : traced) v.push_back(f(*r));
      return Median(v);
    };
    auto seconds_of = [&](const std::string& metric) {
      return median_of([&](const RoundStats& r) {
        auto it = r.seconds.find(metric);
        return it == r.seconds.end() ? 0.0 : it->second;
      });
    };
    auto count_of = [&](const std::string& metric) {
      return median_of([&](const RoundStats& r) {
        auto it = r.counts.find(metric);
        return it == r.counts.end() ? 0.0 : static_cast<double>(it->second);
      });
    };
    auto ratio_ns = [](double seconds, double units) {
      return units > 0 ? seconds * 1e9 / units : 0.0;
    };
    const size_t n = traced.size();
    const double load = Median(workload.load_seconds());
    const size_t nl = workload.load_seconds().size();
    const double edges = static_cast<double>(g.num_edges());
    layers.push_back({"graph.read_text_s", spec.text ? load : 0, "s", nl});
    layers.push_back({"graph.read_binary_s", spec.text ? 0 : load, "s", nl});
    layers.push_back({"graph.ns_per_edge", ratio_ns(load, edges), "ns", nl});
    std::vector<std::string> edge_metrics;
    for (EdgePartitionerId id : AllEdgePartitioners()) {
      const std::string m = "partition.edge." + MakeEdgePartitioner(id)->name() + "_s";
      edge_metrics.push_back(m);
      layers.push_back({m, seconds_of(m), "s", n});
    }
    const double edge_total = median_of([&](const RoundStats& r) {
      double sum = 0;
      for (const std::string& m : edge_metrics) {
        auto it = r.seconds.find(m);
        if (it != r.seconds.end()) sum += it->second;
      }
      return sum;
    });
    layers.push_back({"partition.edge.ns_per_edge",
                      ratio_ns(edge_total, edge_metrics.size() * edges), "ns", n});
    for (VertexPartitionerId id : AllVertexPartitioners()) {
      const std::string m =
          "partition.vertex." + MakeVertexPartitioner(id)->name() + "_s";
      layers.push_back({m, seconds_of(m), "s", n});
    }
    for (const char* m : {"partition.vertex.multilevel.v_cycles",
                          "partition.vertex.multilevel.refine_moves"}) {
      layers.push_back({m, count_of(m), "count", n});
    }
    for (const char* m : {"metrics.edge_s", "sim.distgnn_s", "metrics.vertex_s",
                          "sim.distdgl_s", "sampling.profile_s"}) {
      layers.push_back({m, seconds_of(m), "s", n});
    }
    const double sampled = count_of("sampling.sampled_edges");
    layers.push_back({"sampling.sampled_edges", sampled, "count", n});
    layers.push_back({"sampling.remote_requests",
                      count_of("sampling.remote_requests"), "count", n});
    layers.push_back({"sampling.ns_per_sampled_edge",
                      ratio_ns(seconds_of("sampling.profile_s"), sampled), "ns", n});
    layers.push_back({"serve.generate_s", seconds_of("serve.generate_s"), "s", n});
    layers.push_back({"serve.run_s", seconds_of("serve.run_s"), "s", n});
    const double requests = count_of("serve.requests");
    layers.push_back({"serve.requests", requests, "count", n});
    layers.push_back({"serve.batches", count_of("serve.batches"), "count", n});
    layers.push_back({"net.flows", count_of("net.flows"), "count", n});
    layers.push_back({"net.phases", count_of("net.phases"), "count", n});
    layers.push_back({"serve.ns_per_request",
                      ratio_ns(seconds_of("serve.run_s"), requests), "ns", n});
    layers.push_back({"check.validate_s",
                      median_of([](const RoundStats& r) { return r.check; }), "s", n});
    layers.push_back({"trace.overhead_s",
                      median_of([](const RoundStats& r) { return r.trace; }), "s",
                      n});

    const double wall = Median(traced_wall);
    std::printf("\n%-44s %16s %-6s %8s %s\n", "per-layer metric (traced)",
                "value", "unit", "share", "samples");
    for (const Metric& m : layers) {
      const bool is_round_time = m.unit == "s" && m.name.rfind("graph.", 0) != 0 &&
                                 m.name != "trace.overhead_s";
      std::printf("%-44s %16.6f %-6s %7.1f%% %zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(),
                  is_round_time && wall > 0 ? 100.0 * m.value / wall : 0.0,
                  m.samples);
    }

    // Spans, written once at exit.
    const std::string spans_path = Fmt("%s/spans-%s-r%" PRIu64 ".jsonl",
                                       args.work_dir.c_str(), spec.name, args.seed);
    std::ofstream out(spans_path);
    out << "{\"meta\": " << meta << "}\n";
    for (const Span& s : bench.spans()) {
      out << Fmt("{\"name\": \"%s\", \"metric\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"round\": %d, \"counts\": {",
                 JsonEscape(s.name).c_str(), s.metric.c_str(), s.start, s.end,
                 s.parent, s.round);
      const char* sep = "";
      for (const auto& [k, v] : s.counts) {
        out << sep << "\"" << k << "\": " << v;
        sep = ", ";
      }
      out << "}}\n";
    }
    std::printf("spans: %zu written to %s\n", bench.spans().size(),
                spans_path.c_str());
  }

  // Digests of this run, for refreshing the stored references.
  {
    std::ofstream out(Fmt("%s/digests-%s-r%" PRIu64 ".txt", args.work_dir.c_str(),
                          spec.name, args.seed));
    for (const auto& [key, digest] : bench.digests()) {
      out << spec.name << " " << args.seed << " " << key << " " << digest << "\n";
    }
  }

  // Result line.
  const std::vector<Metric>& reported = args.trace ? layers : e2e;
  std::string json = Fmt("{\"correct\": %s, \"attempted\": %" PRIu64
                         ", \"failed\": %" PRIu64 ", \"metrics\": {",
                         bench.failed() == 0 ? "true" : "false",
                         bench.attempted(), bench.failed());
  const char* sep = "";
  for (const Metric& m : reported) {
    if (m.name == "error_rate") continue;  // carried by attempted/failed
    json += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.command != "generate" && args.command != "run")) {
    std::fprintf(stderr,
                 "usage: layerbench_driver generate|run --workload W --seed N "
                 "[--seconds S] [--trace 0|1] [--work-dir D] "
                 "[--references FILE]\n");
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  return args.command == "generate" ? Generate(spec, args.seed, args.work_dir)
                                    : Run(args, spec);
}
