// The trace subsystem's core contract: an attached event log never changes
// the simulated report, and its spans carry enough exact information to
// reconstruct the report's phase seconds bit-for-bit
// (straggler-summed per-step maxima == report totals, EXPECT_EQ on
// doubles, no tolerance). Plus the analysis/exporter invariants that the
// CLI's explain and --trace-out paths rely on.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "gen/datasets.h"
#include "graph/split.h"
#include "net/overlap.h"
#include "obs/events.h"
#include "partition/edge/registry.h"
#include "partition/vertex/registry.h"
#include "sim/distdgl_sim.h"
#include "sim/distgnn_sim.h"
#include "trace/analysis.h"
#include "trace/explain.h"
#include "trace/export.h"
#include "trace/report.h"

namespace gnnpart {
namespace {

constexpr uint64_t kSeed = 42;
constexpr PartitionId kParts = 8;

// The span records of one epoch, in log order.
std::vector<const obs::Event*> Spans(const obs::EpochEvents& epoch) {
  std::vector<const obs::Event*> spans;
  for (const obs::Event& e : epoch.events) {
    if (e.kind == obs::Event::Kind::kSpan) spans.push_back(&e);
  }
  return spans;
}

GnnConfig TestConfig() {
  GnnConfig config;
  config.arch = GnnArchitecture::kGraphSage;
  config.num_layers = 3;
  config.feature_size = 64;
  config.hidden_dim = 64;
  config.num_classes = 16;
  config.fanouts = GnnConfig::DefaultFanouts(3);
  return config;
}

class TraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Result<Graph> g = MakeDataset(DatasetId::kOrkut, 0.05, kSeed);
    ASSERT_TRUE(g.ok()) << g.status();
    graph_ = new Graph(std::move(g).value());
    split_ = new VertexSplit(
        VertexSplit::MakeRandom(graph_->num_vertices(), 0.1, 0.1, kSeed));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete split_;
    graph_ = nullptr;
    split_ = nullptr;
  }

  static ClusterSpec Cluster() {
    ClusterSpec cluster;
    cluster.num_machines = static_cast<int>(kParts);
    return cluster;
  }

  // DistGNN epoch over an HDRF edge partitioning, logged into `events`.
  static DistGnnEpochReport RunDistGnn(obs::EventLog* events) {
    auto parts = MakeEdgePartitioner(EdgePartitionerId::kHdrf)
                     ->Partition(*graph_, kParts, kSeed);
    EXPECT_TRUE(parts.ok());
    DistGnnWorkload workload = BuildDistGnnWorkload(*graph_, *parts);
    return SimulateDistGnnEpoch(workload, TestConfig(), Cluster(), nullptr,
                                nullptr, events);
  }

  // DistDGL epoch over a Metis vertex partitioning, logged into `events`.
  static DistDglEpochReport RunDistDgl(obs::EventLog* events) {
    auto parts = MakeVertexPartitioner(VertexPartitionerId::kMetis)
                     ->Partition(*graph_, *split_, kParts, kSeed);
    EXPECT_TRUE(parts.ok());
    auto profile = ProfileDistDglEpoch(*graph_, *parts, *split_,
                                       TestConfig().fanouts,
                                       /*global_batch_size=*/256, kSeed);
    EXPECT_TRUE(profile.ok());
    return SimulateDistDglEpoch(*profile, TestConfig(), Cluster(), nullptr,
                                nullptr, events);
  }

  static Graph* graph_;
  static VertexSplit* split_;
};

Graph* TraceTest::graph_ = nullptr;
VertexSplit* TraceTest::split_ = nullptr;

// --- the central invariant: trace reconstructs the report bit-exactly ---

TEST_F(TraceTest, DistGnnTraceReconstructsReportBitExactly) {
  obs::EventLog log;
  DistGnnEpochReport report = RunDistGnn(&log);
  trace::DistGnnPhaseSeconds r =
      trace::ReconstructDistGnnReport(log.epochs().back());
  EXPECT_EQ(r.forward, report.forward_seconds);
  EXPECT_EQ(r.backward, report.backward_seconds);
  EXPECT_EQ(r.sync, report.sync_seconds);
  EXPECT_EQ(r.optimizer, report.optimizer_seconds);
  EXPECT_EQ(r.epoch, report.epoch_seconds);
}

TEST_F(TraceTest, DistDglTraceReconstructsReportBitExactly) {
  obs::EventLog log;
  DistDglEpochReport report = RunDistDgl(&log);
  trace::DistDglPhaseSeconds r =
      trace::ReconstructDistDglReport(log.epochs().back());
  EXPECT_EQ(r.sampling, report.sampling_seconds);
  EXPECT_EQ(r.feature, report.feature_seconds);
  EXPECT_EQ(r.forward, report.forward_seconds);
  EXPECT_EQ(r.backward, report.backward_seconds);
  EXPECT_EQ(r.update, report.update_seconds);
  EXPECT_EQ(r.epoch, report.epoch_seconds);
}

// --- attaching the event log (the span recorder) never perturbs the
// simulation ---

TEST_F(TraceTest, RecorderAttachmentDoesNotChangeDistGnnReport) {
  DistGnnEpochReport plain = RunDistGnn(nullptr);
  obs::EventLog log;
  DistGnnEpochReport traced = RunDistGnn(&log);
  EXPECT_EQ(plain.epoch_seconds, traced.epoch_seconds);
  EXPECT_EQ(plain.forward_seconds, traced.forward_seconds);
  EXPECT_EQ(plain.backward_seconds, traced.backward_seconds);
  EXPECT_EQ(plain.sync_seconds, traced.sync_seconds);
  EXPECT_EQ(plain.optimizer_seconds, traced.optimizer_seconds);
  EXPECT_EQ(plain.total_network_bytes, traced.total_network_bytes);
}

TEST_F(TraceTest, RecorderAttachmentDoesNotChangeDistDglReport) {
  DistDglEpochReport plain = RunDistDgl(nullptr);
  obs::EventLog log;
  DistDglEpochReport traced = RunDistDgl(&log);
  EXPECT_EQ(plain.epoch_seconds, traced.epoch_seconds);
  EXPECT_EQ(plain.sampling_seconds, traced.sampling_seconds);
  EXPECT_EQ(plain.feature_seconds, traced.feature_seconds);
  EXPECT_EQ(plain.forward_seconds, traced.forward_seconds);
  EXPECT_EQ(plain.backward_seconds, traced.backward_seconds);
  EXPECT_EQ(plain.update_seconds, traced.update_seconds);
}

// --- BSP span-layout invariants ---

// Every (step, phase) barrier has exactly one span per worker and all of
// them share t_begin (workers enter a BSP phase together); span times are
// finite and non-negative.
void CheckBspLayout(const obs::EpochEvents& epoch) {
  ASSERT_GT(Spans(epoch).size(), 0u);
  std::map<std::pair<uint32_t, int>, std::pair<double, uint32_t>> barriers;
  std::map<std::pair<uint32_t, int>, std::set<int>> workers;
  for (const obs::Event* s : Spans(epoch)) {
    EXPECT_LT(s->step, epoch.steps);
    EXPECT_GE(s->src, 0);
    EXPECT_LT(static_cast<uint32_t>(s->src), epoch.workers);
    EXPECT_GE(s->dur, 0.0);
    EXPECT_GE(s->t0, 0.0);
    const auto key = std::make_pair(s->step, static_cast<int>(s->phase));
    auto [it, fresh] = barriers.emplace(key, std::make_pair(s->t0, 1u));
    if (!fresh) {
      EXPECT_EQ(it->second.first, s->t0)
          << "workers of step " << s->step << " phase "
          << obs::PhaseName(s->phase) << " must enter at the same barrier";
      ++it->second.second;
    }
    EXPECT_TRUE(workers[key].insert(s->src).second)
        << "duplicate span for worker " << s->src;
  }
  for (const auto& [key, entry] : barriers) {
    EXPECT_EQ(entry.second, epoch.workers)
        << "step " << key.first << " phase " << key.second
        << " must have one span per worker";
  }
}

TEST_F(TraceTest, DistGnnSpansFollowBspLayout) {
  obs::EventLog log;
  RunDistGnn(&log);
  const obs::EpochEvents& epoch = log.epochs().back();
  CheckBspLayout(epoch);
  // layers + 1 pseudo-step (optimizer), 8 workers, 2 phases per layer in
  // each direction + optimizer.
  EXPECT_EQ(epoch.sim, "distgnn");
  EXPECT_EQ(epoch.steps, 4u);  // 3 layers + optimizer pseudo-step
  EXPECT_EQ(epoch.workers, static_cast<uint32_t>(kParts));
  EXPECT_EQ(Spans(epoch).size(), (3u * 4u + 1u) * kParts);
}

TEST_F(TraceTest, DistDglSpansFollowBspLayout) {
  obs::EventLog log;
  DistDglEpochReport report = RunDistDgl(&log);
  const obs::EpochEvents& epoch = log.epochs().back();
  CheckBspLayout(epoch);
  EXPECT_EQ(epoch.sim, "distdgl");
  EXPECT_EQ(epoch.workers, static_cast<uint32_t>(kParts));
  EXPECT_EQ(Spans(epoch).size(),
            static_cast<size_t>(epoch.steps) * 5 * kParts);
  // The epoch ends when the last barrier closes; with per-step barrier
  // accumulation this is the sum of all barrier maxima, which can differ
  // from the report's chunk-summed total only in FP grouping.
  double end = 0;
  for (const obs::Event* span : Spans(epoch)) {
    end = std::max(end, span->t0 + span->dur);
  }
  EXPECT_NEAR(end, report.epoch_seconds, 1e-12 * report.epoch_seconds);
}

// --- analysis invariants (satellite: straggler sums == per-step maxima) ---

// Per phase: the blame charged to all workers equals the sum of per-step
// maxima reconstructed from the trace (both are "straggler-summed" phase
// totals; plain double sums on both sides, so EXPECT_EQ holds).
TEST_F(TraceTest, BlameSumsMatchStepMaxima) {
  obs::EventLog log;
  RunDistDgl(&log);
  const obs::EpochEvents& epoch = log.epochs().back();
  const auto stats = trace::ComputeStepPhaseStats(epoch);
  const auto blame = trace::ComputeWorkerBlame(epoch);
  for (obs::Phase phase : trace::StepPhases(epoch.sim)) {
    const size_t p = static_cast<size_t>(phase);
    double max_total = 0, blame_total = 0;
    uint64_t barriers = 0;
    for (const auto& st : stats) {
      if (st.phase == phase) max_total += st.max_seconds;
    }
    for (const auto& b : blame) {
      blame_total += b.blame_seconds[p];
      barriers += b.steps_blamed[p];
    }
    EXPECT_EQ(blame_total, max_total) << "phase " << obs::PhaseName(phase);
    EXPECT_EQ(barriers, epoch.steps)
        << "each step has one " << obs::PhaseName(phase) << " barrier";
  }
}

// The wait matrix is WorkerBlame::wait_seconds: waits[w][p] = seconds
// worker `w` idled at phase `p` barriers over the epoch.
TEST_F(TraceTest, WaitMatrixIsNonNegativeAndStragglersNeverWait) {
  obs::EventLog log;
  RunDistGnn(&log);
  const obs::EpochEvents& epoch = log.epochs().back();
  const auto blame = trace::ComputeWorkerBlame(epoch);
  ASSERT_EQ(blame.size(), epoch.workers);
  for (const trace::WorkerBlame& wb : blame) {
    for (double wait : wb.wait_seconds) EXPECT_GE(wait, 0.0);
  }
  // A barrier's straggler is the max by construction, so its own wait
  // contribution at that barrier is exactly zero.
  const auto stats = trace::ComputeStepPhaseStats(epoch);
  for (const auto& st : stats) {
    double total_wait_check = 0;
    for (const obs::Event* s : Spans(epoch)) {
      if (s->step != st.step || s->phase != st.phase) continue;
      if (static_cast<uint32_t>(s->src) == st.straggler) {
        EXPECT_EQ(s->dur, st.max_seconds);
      }
      total_wait_check += st.max_seconds - s->dur;
    }
    // count*max - sum vs sum of (max - d): same quantity, different FP
    // grouping, so compare with a tiny absolute tolerance.
    EXPECT_NEAR(total_wait_check, st.wait_seconds, 1e-15);
  }
}

TEST_F(TraceTest, ChunkedSumMatchesParallelReduceGrouping) {
  std::vector<double> values;
  uint64_t state = kSeed;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    values.push_back(static_cast<double>(state >> 11) * 0x1.0p-53);
  }
  for (size_t grain : {1u, 8u, 64u, 1000u, 5000u}) {
    const double chunked =
        trace::ChunkedSum(values.data(), values.size(), grain);
    const double reduced = ParallelReduce<double>(
        values.size(), grain, 0.0,
        [&](size_t begin, size_t end, size_t) {
          double acc = 0;
          for (size_t i = begin; i < end; ++i) acc += values[i];
          return acc;
        },
        [](double acc, double part) { return acc + part; });
    EXPECT_EQ(chunked, reduced) << "grain " << grain;
  }
}

TEST_F(TraceTest, DistDglReconstructionSumsInTheEpochHeadersGrain) {
  // Step maxima 1, 2^-53, 2^-53, 2^-53. In chunks of 2 steps the sum is
  // (1 + 2^-53) + (2^-53 + 2^-53) = 1 + 2^-52; in one chunk of 8 every
  // 2^-53 rounds away and the sum is 1. The header says grain 2.
  obs::EventLog log;
  log.BeginEpoch("distdgl", 4, 1, 2);
  const double maxima[] = {1.0, 0x1p-53, 0x1p-53, 0x1p-53};
  double t = 0;
  for (uint32_t step = 0; step < 4; ++step) {
    log.AddSpan(step, 0, obs::Phase::kSampling, t, maxima[step], 0.0, 0.0);
    t += maxima[step];
  }
  ASSERT_NE(trace::ChunkedSum(maxima, 4, 2), trace::ChunkedSum(maxima, 4, 8));
  const trace::DistDglPhaseSeconds r =
      trace::ReconstructDistDglReport(log.epochs().back());
  EXPECT_EQ(r.sampling, 1.0 + 0x1p-52);
  EXPECT_EQ(r.epoch, 1.0 + 0x1p-52);
}

// --- exporters ---

// Minimal recursive-descent JSON syntax check — enough to catch broken
// escaping/comma placement without a JSON library.
bool ValidJson(const std::string& text, size_t& pos);

bool SkipWs(const std::string& t, size_t& p) {
  while (p < t.size() && (t[p] == ' ' || t[p] == '\n' || t[p] == '\t' ||
                          t[p] == '\r')) {
    ++p;
  }
  return p < t.size();
}

bool ValidString(const std::string& t, size_t& p) {
  if (t[p] != '"') return false;
  for (++p; p < t.size(); ++p) {
    if (t[p] == '\\') {
      ++p;
    } else if (t[p] == '"') {
      ++p;
      return true;
    }
  }
  return false;
}

bool ValidJson(const std::string& t, size_t& p) {
  if (!SkipWs(t, p)) return false;
  if (t[p] == '{') {
    ++p;
    if (!SkipWs(t, p)) return false;
    if (t[p] == '}') return ++p, true;
    while (true) {
      if (!SkipWs(t, p) || !ValidString(t, p)) return false;
      if (!SkipWs(t, p) || t[p] != ':') return false;
      ++p;
      if (!ValidJson(t, p)) return false;
      if (!SkipWs(t, p)) return false;
      if (t[p] == ',') {
        ++p;
        continue;
      }
      return t[p] == '}' ? (++p, true) : false;
    }
  }
  if (t[p] == '[') {
    ++p;
    if (!SkipWs(t, p)) return false;
    if (t[p] == ']') return ++p, true;
    while (true) {
      if (!ValidJson(t, p)) return false;
      if (!SkipWs(t, p)) return false;
      if (t[p] == ',') {
        ++p;
        continue;
      }
      return t[p] == ']' ? (++p, true) : false;
    }
  }
  if (t[p] == '"') return ValidString(t, p);
  const size_t start = p;
  while (p < t.size() && (std::isdigit(static_cast<unsigned char>(t[p])) ||
                          t[p] == '-' || t[p] == '+' || t[p] == '.' ||
                          t[p] == 'e' || t[p] == 'E' || t[p] == 't' ||
                          t[p] == 'r' || t[p] == 'u' || t[p] == 'f' ||
                          t[p] == 'a' || t[p] == 'l' || t[p] == 's' ||
                          t[p] == 'n')) {
    ++p;
  }
  return p > start;
}

TEST_F(TraceTest, ChromeTraceJsonIsSyntacticallyValidAndComplete) {
  obs::EventLog log;
  RunDistGnn(&log);
  const obs::EpochEvents& epoch = log.epochs().back();
  const std::string json = trace::ChromeTraceJson(epoch);
  size_t pos = 0;
  EXPECT_TRUE(ValidJson(json, pos)) << "invalid JSON near byte " << pos;
  SkipWs(json, pos);
  EXPECT_EQ(pos, json.size()) << "trailing bytes after the JSON value";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"distgnn simulated epoch\""), std::string::npos);
  // One complete ("X") event per span and per flow; flows live on their
  // own process row, and no wall-clock row exists.
  size_t x_events = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++x_events;
  }
  size_t flows = 0;
  for (const obs::Event& e : epoch.events) {
    flows += e.kind == obs::Event::Kind::kFlow;
  }
  EXPECT_GT(flows, 0u);
  EXPECT_EQ(x_events, Spans(epoch).size() + flows);
  EXPECT_NE(json.find("\"network flows\""), std::string::npos);
  EXPECT_EQ(json.find("\"pid\":1"), std::string::npos);
}

// Within one worker's track the simulated spans must not overlap —
// otherwise Perfetto renders garbage and the timeline lies.
TEST_F(TraceTest, SpansWithinAWorkerTrackAreDisjoint) {
  for (int sim = 0; sim < 2; ++sim) {
    obs::EventLog log;
    if (sim == 0) {
      RunDistGnn(&log);
    } else {
      RunDistDgl(&log);
    }
    const obs::EpochEvents& epoch = log.epochs().back();
    std::map<int, std::vector<const obs::Event*>> tracks;
    for (const obs::Event* s : Spans(epoch)) tracks[s->src].push_back(s);
    for (auto& [worker, spans] : tracks) {
      // Spans are emitted in timeline order by the canonical replay pass.
      for (size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i]->t0, spans[i - 1]->t0 + spans[i - 1]->dur)
            << epoch.sim << " worker " << worker << " span " << i;
      }
    }
  }
}

TEST_F(TraceTest, CsvExportHasOneRowPerSpan) {
  obs::EventLog log;
  RunDistDgl(&log);
  const obs::EpochEvents& epoch = log.epochs().back();
  const std::string csv = trace::TraceCsv(epoch);
  size_t lines = 0;
  for (char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, Spans(epoch).size() + 1);  // + header
  EXPECT_EQ(
      csv.rfind("step,worker,phase,t_begin,t_end,seconds,comm_seconds,bytes\n",
                0),
      0u);
}

// --- report tables ---

TEST_F(TraceTest, ReportTablesRenderForBothSimulators) {
  for (int sim = 0; sim < 2; ++sim) {
    obs::EventLog log;
    if (sim == 0) {
      RunDistGnn(&log);
    } else {
      RunDistDgl(&log);
    }
    Result<trace::ExplainReport> rep = trace::ComputeExplain(log);
    ASSERT_TRUE(rep.ok()) << rep.status();
    std::ostringstream out;
    trace::PrintExplain(out, log, *rep, nullptr, kParts);
    const std::string text = out.str();
    for (const char* needle :
         {"critical-path attribution", "straggler ranking", "blame ms",
          "pipelined blame ms", "top straggler", "dominant phase",
          "\noverlap: bsp "}) {
      EXPECT_NE(text.find(needle), std::string::npos) << sim << ": " << needle;
    }
    // One worker-table row per worker: heading, header and rule lines,
    // then kParts rows up to the blank line before the next section.
    const size_t begin = text.find("--- straggler ranking ---\n");
    ASSERT_NE(begin, std::string::npos);
    const size_t end = text.find("\n\n", begin) + 1;
    size_t lines = 0;
    for (size_t i = begin; i < end; ++i) lines += (text[i] == '\n');
    EXPECT_EQ(lines, 3 + static_cast<size_t>(kParts));
  }
}

// For a one-epoch log every worker column of the explain report is the
// per-epoch pass itself: 0 + x == x, so == holds on the doubles.
TEST_F(TraceTest, ExplainWorkerColumnsEqualPerEpochPasses) {
  for (int sim = 0; sim < 2; ++sim) {
    obs::EventLog log;
    if (sim == 0) {
      RunDistGnn(&log);
    } else {
      RunDistDgl(&log);
    }
    const obs::EpochEvents& epoch = log.epochs().back();
    const std::vector<trace::WorkerBlame> blame =
        trace::ComputeWorkerBlame(epoch);
    const net::OverlapReport overlap = net::ComputeOverlap(epoch);
    Result<trace::ExplainReport> rep = trace::ComputeExplain(log);
    ASSERT_TRUE(rep.ok()) << rep.status();
    ASSERT_EQ(rep->stragglers.size(), static_cast<size_t>(kParts));
    for (const trace::StragglerStat& s : rep->stragglers) {
      const size_t w = static_cast<size_t>(s.worker);
      ASSERT_LT(w, blame.size());
      EXPECT_EQ(s.phase_blame_seconds, blame[w].blame_seconds) << w;
      EXPECT_EQ(s.blame_seconds, blame[w].total_blame()) << w;
      EXPECT_EQ(s.steps_blamed, blame[w].total_steps_blamed()) << w;
      EXPECT_EQ(s.wait_seconds, blame[w].total_wait()) << w;
      EXPECT_EQ(s.busy_seconds, blame[w].busy_seconds) << w;
      EXPECT_EQ(s.pipelined_blame_seconds, overlap.worker_pipelined_blame[w])
          << w;
      EXPECT_EQ(s.comm_seconds, overlap.worker_comm_seconds[w]) << w;
      EXPECT_EQ(s.compute_seconds, overlap.worker_compute_seconds[w]) << w;
    }
    EXPECT_EQ(rep->bsp_seconds, overlap.bsp_epoch_seconds);
    EXPECT_EQ(rep->pipelined_seconds, overlap.pipelined_epoch_seconds);
    EXPECT_EQ(rep->hidden_seconds, overlap.hidden_seconds);
  }
}

// One event log records successive epochs side by side; the analyses read
// any one of them, and the last reconstructs its own report.
TEST_F(TraceTest, RecorderReusableAcrossEpochs) {
  obs::EventLog log;
  RunDistGnn(&log);
  DistDglEpochReport report = RunDistDgl(&log);
  ASSERT_EQ(log.epochs().size(), 2u);
  EXPECT_EQ(log.epochs()[0].sim, "distgnn");
  EXPECT_EQ(log.epochs()[1].sim, "distdgl");
  EXPECT_NE(Spans(log.epochs()[0]).size(), Spans(log.epochs()[1]).size());
  EXPECT_EQ(trace::ReconstructDistDglReport(log.epochs()[1]).epoch,
            report.epoch_seconds);
}

}  // namespace
}  // namespace gnnpart
