// Causal event timeline + explain attribution tests (DESIGN.md §14):
//
//   * the event stream validates, its spans reconstruct the epoch report
//     bit-exactly, and its explain components sum to the reported epoch
//     time bit-exactly;
//   * congestion is identically 0.0 on a full-bisection fabric and
//     strictly positive on an oversubscribed fat tree, whose uplink is the
//     top contended link;
//   * the serialized JSONL is byte-identical for --threads 1/2/8 and
//     byte-stable through a parse/re-serialize round trip, with attribution
//     from the loaded file bit-equal to the in-process one;
//   * every events/* parser error and obs/event-* validator invariant is
//     reachable by name from a targeted corruption.
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/validators.h"
#include "common/parallel.h"
#include "gen/generators.h"
#include "net/topology.h"
#include "obs/events.h"
#include "partition/edge/registry.h"
#include "sim/distgnn_sim.h"
#include "trace/explain.h"

namespace gnnpart {
namespace {

Graph SimGraph() {
  RmatParams p;
  p.num_vertices = 2000;
  p.num_edges = 16000;
  Result<Graph> g = GenerateRmat(p, 71);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

GnnConfig SimConfig() {
  GnnConfig c;
  c.arch = GnnArchitecture::kGraphSage;
  c.num_layers = 2;
  c.feature_size = 32;
  c.hidden_dim = 32;
  c.num_classes = 16;
  return c;
}

net::NetworkConfig FatTree(const ClusterSpec& cluster) {
  net::NetworkConfig cfg = net::NetworkConfig::FromCluster(cluster);
  cfg.topology = net::TopologyKind::kFatTree;
  cfg.rack_size = 2;
  cfg.oversubscription = 4.0;
  return cfg;
}

// One distgnn epoch on the given fabric with the event log attached.
struct SimRun {
  DistGnnEpochReport report;
  obs::EventLog events;
};

SimRun RunDistGnn(const Graph& g, const net::Fabric& fabric) {
  auto parts =
      MakeEdgePartitioner(EdgePartitionerId::kHdrf)->Partition(g, 8, 42);
  EXPECT_TRUE(parts.ok());
  DistGnnWorkload w = BuildDistGnnWorkload(g, parts.value());
  ClusterSpec cluster;
  SimRun run;
  run.report = SimulateDistGnnEpoch(w, SimConfig(), cluster, &fabric, nullptr,
                                    &run.events);
  return run;
}

TEST(ObsEventsTest, ValidatesAndMatchesTraceOnFullBisection) {
  Graph g = SimGraph();
  net::Fabric fabric(net::NetworkConfig::FromCluster(ClusterSpec{}), 8);
  SimRun run = RunDistGnn(g, fabric);

  EXPECT_TRUE(check::ValidateEventLog(run.events).ok());
  EXPECT_TRUE(check::CheckTraceReconstructsReport(run.events.epochs().back(),
                                                  run.report)
                  .ok());
  EXPECT_TRUE(check::CheckEventAttribution(run.events).ok());

  Result<trace::ExplainReport> rep = trace::ComputeExplain(run.events);
  ASSERT_TRUE(rep.ok());
  // Every flow owns its bottleneck on full bisection: congestion is 0.0
  // bitwise, and the component sum IS the reported total bitwise. The
  // total may sit one rounding step off the epoch report when the epoch
  // time is not representable as this sum chain (DESIGN.md §14), so the
  // cross-check against the simulator is a 4*eps bound, not equality.
  EXPECT_EQ(rep->congestion_seconds, 0.0);
  EXPECT_NEAR(rep->total_seconds, run.report.epoch_seconds,
              4.0 * std::numeric_limits<double>::epsilon() *
                  run.report.epoch_seconds);
  EXPECT_EQ(((rep->compute_seconds + rep->wait_seconds) +
             rep->congestion_seconds) +
                rep->migration_seconds,
            rep->total_seconds);
}

TEST(ObsEventsTest, OversubscribedFatTreeBlamesUplink) {
  Graph g = SimGraph();
  ClusterSpec cluster;
  net::Fabric fabric(FatTree(cluster), 8);
  SimRun run = RunDistGnn(g, fabric);

  EXPECT_TRUE(check::ValidateEventLog(run.events).ok());
  EXPECT_TRUE(check::CheckEventAttribution(run.events).ok());
  Result<trace::ExplainReport> rep = trace::ComputeExplain(run.events);
  ASSERT_TRUE(rep.ok());
  EXPECT_GT(rep->congestion_seconds, 0.0);
  EXPECT_EQ(rep->total_seconds, run.report.epoch_seconds);
  ASSERT_FALSE(rep->links.empty());
  // The 4x-oversubscribed uplinks are where flows actually share a
  // bottleneck, so one of them must rank first.
  EXPECT_EQ(rep->links[0].name.rfind("uplink", 0), 0u)
      << "top contended link was " << rep->links[0].name;
  EXPECT_GT(rep->links[0].contended_seconds, 0.0);
  EXPECT_FALSE(rep->links[0].talkers.empty());
}

TEST(ObsEventsTest, RoundTripIsByteStableAndBitEqual) {
  Graph g = SimGraph();
  ClusterSpec cluster;
  net::Fabric fabric(FatTree(cluster), 8);
  SimRun run = RunDistGnn(g, fabric);

  const std::vector<std::pair<std::string, std::string>> meta = {
      {"tool", "obs_events_test"}};
  std::string first;
  obs::WriteEvents(run.events, meta, &first);
  Result<obs::EventLog> parsed = obs::ParseEvents(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  std::string second;
  obs::WriteEvents(*parsed, meta, &second);
  EXPECT_EQ(first, second);

  // %.17g + strtod round-trips doubles exactly: attribution computed from
  // the loaded file is bit-equal to the in-process one.
  Result<trace::ExplainReport> a = trace::ComputeExplain(run.events);
  Result<trace::ExplainReport> b = trace::ComputeExplain(*parsed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_seconds, b->total_seconds);
  EXPECT_EQ(a->compute_seconds, b->compute_seconds);
  EXPECT_EQ(a->wait_seconds, b->wait_seconds);
  EXPECT_EQ(a->congestion_seconds, b->congestion_seconds);
  EXPECT_EQ(a->uncontended_comm_seconds, b->uncontended_comm_seconds);
}

TEST(ObsEventsTest, StreamIsByteIdenticalAcrossThreads) {
  Graph g = SimGraph();
  ClusterSpec cluster;
  net::Fabric fabric(FatTree(cluster), 8);
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    SetDefaultThreads(threads);
    SimRun run = RunDistGnn(g, fabric);
    std::string serialized;
    obs::WriteEvents(run.events, {{"tool", "obs_events_test"}}, &serialized);
    if (baseline.empty()) {
      baseline = serialized;
    } else {
      EXPECT_EQ(baseline, serialized) << "threads=" << threads;
    }
  }
  SetDefaultThreads(1);
}

// --- strict parser: every events/* error by name ---------------------------

constexpr const char* kMeta =
    "{\"type\":\"meta\",\"schema\":\"gnnpart.events\",\"version\":1}\n";
constexpr const char* kEpoch =
    "{\"type\":\"epoch\",\"sim\":\"distdgl\",\"steps\":2,\"workers\":1,"
    "\"grain\":8}\n";

void ExpectParseError(const std::string& content, const std::string& name) {
  Result<obs::EventLog> parsed = obs::ParseEvents(content);
  ASSERT_FALSE(parsed.ok()) << "accepted corrupt log; wanted " << name;
  EXPECT_NE(parsed.status().message().find(name), std::string::npos)
      << parsed.status().message();
}

TEST(ObsEventsParserTest, RejectsEveryCorruptionByName) {
  ExpectParseError(std::string(kMeta) + "{\"type\":\"span\"\n",
                   "events/bad-json");
  ExpectParseError("", "events/missing-meta");
  ExpectParseError("{\"type\":\"link\",\"id\":0,\"name\":\"n\","
                   "\"capacity\":1}\n",
                   "events/missing-meta");
  ExpectParseError(
      "{\"type\":\"meta\",\"schema\":\"gnnpart.metrics\",\"version\":1}\n",
      "events/schema");
  ExpectParseError(
      "{\"type\":\"meta\",\"schema\":\"gnnpart.events\",\"version\":2}\n",
      "events/schema-version");
  ExpectParseError(std::string(kMeta) +
                       "{\"type\":\"link\",\"id\":0,\"name\":\"n\"}\n",
                   "events/missing-field");
  ExpectParseError(std::string(kMeta) + "{\"type\":\"wormhole\"}\n",
                   "events/unknown-type");
  ExpectParseError(std::string(kMeta) + kEpoch +
                       "{\"type\":\"span\",\"step\":0,\"worker\":0,"
                       "\"phase\":\"teleport\",\"t0\":0,\"dur\":1,"
                       "\"comm\":0,\"bytes\":0}\n",
                   "events/unknown-phase");
  ExpectParseError(std::string(kMeta) +
                       "{\"type\":\"link\",\"id\":1,\"name\":\"n\","
                       "\"capacity\":1}\n",
                   "events/link-order");
  ExpectParseError(std::string(kMeta) + kEpoch +
                       "{\"type\":\"link\",\"id\":0,\"name\":\"n\","
                       "\"capacity\":1}\n",
                   "events/link-order");
  ExpectParseError(std::string(kMeta) +
                       "{\"type\":\"cache\",\"step\":0,\"hits\":1,"
                       "\"misses\":0}\n",
                   "events/orphan-record");
}

// --- validators: every obs/event-* invariant by name -----------------------

// A minimal, fully valid one-worker log the corruptions below perturb.
std::string GoodLog() {
  return std::string(kMeta) +
         "{\"type\":\"link\",\"id\":0,\"name\":\"nic0\",\"capacity\":100}\n" +
         kEpoch +
         "{\"type\":\"span\",\"step\":0,\"worker\":0,\"phase\":\"forward\","
         "\"t0\":0,\"dur\":1,\"comm\":0.5,\"bytes\":50}\n"
         "{\"type\":\"flow\",\"step\":0,\"phase\":\"forward\",\"src\":0,"
         "\"dst\":-1,\"t0\":0.5,\"t1\":1,\"t1f\":1,\"bytes\":50,"
         "\"links\":[0]}\n"
         "{\"type\":\"sample\",\"link\":0,\"t0\":0.5,\"t1\":1,\"rate\":100,"
         "\"flows\":1}\n"
         "{\"type\":\"span\",\"step\":1,\"worker\":0,\"phase\":\"backward\","
         "\"t0\":1,\"dur\":1,\"comm\":0,\"bytes\":0}\n";
}

obs::EventLog ParseGood(const std::string& content) {
  Result<obs::EventLog> parsed = obs::ParseEvents(content);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  return std::move(parsed).value();
}

void ExpectInvalid(const std::string& content, const std::string& name) {
  Result<obs::EventLog> parsed = obs::ParseEvents(content);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  Status st = check::ValidateEventLog(*parsed);
  ASSERT_FALSE(st.ok()) << "validator accepted corrupt log; wanted " << name;
  EXPECT_EQ(st.message().rfind(name, 0), 0u) << st.message();
}

std::string Replace(std::string s, const std::string& from,
                    const std::string& to) {
  size_t pos = s.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  return s.replace(pos, from.size(), to);
}

TEST(ObsEventsValidatorTest, GoodLogPasses) {
  obs::EventLog log = ParseGood(GoodLog());
  EXPECT_TRUE(check::ValidateEventLog(log).ok());
  EXPECT_TRUE(check::CheckEventAttribution(log).ok());
}

TEST(ObsEventsValidatorTest, ShapeViolationsByName) {
  // Unknown simulator name.
  ExpectInvalid(Replace(GoodLog(), "\"sim\":\"distdgl\"",
                        "\"sim\":\"hypercube\""),
                "obs/event-shape");
  // A known phase outside the epoch's vocabulary (queue is serve-only).
  ExpectInvalid(Replace(GoodLog(), "\"phase\":\"backward\"",
                        "\"phase\":\"queue\""),
                "obs/event-shape");
  // Span outside the declared worker range.
  ExpectInvalid(Replace(GoodLog(), "\"step\":1,\"worker\":0",
                        "\"step\":1,\"worker\":7"),
                "obs/event-shape");
  // Flow destination beyond the declared workers.
  ExpectInvalid(Replace(GoodLog(), "\"dst\":-1", "\"dst\":9"),
                "obs/event-shape");
  // Flow naming a link the fabric never declared.
  ExpectInvalid(Replace(GoodLog(), "\"links\":[0]", "\"links\":[3]"),
                "obs/event-shape");
  // Sample on an undeclared link.
  ExpectInvalid(Replace(GoodLog(), "\"sample\",\"link\":0",
                        "\"sample\",\"link\":5"),
                "obs/event-shape");
}

TEST(ObsEventsValidatorTest, TimeViolationsByName) {
  // Span communication share above its duration.
  ExpectInvalid(Replace(GoodLog(), "\"dur\":1,\"comm\":0.5",
                        "\"dur\":1,\"comm\":2"),
                "obs/event-time");
  // Flow finishing before its uncontended completion is reversed
  // causality: t0 <= t1f <= t1 must hold.
  ExpectInvalid(Replace(GoodLog(), "\"t1\":1,\"t1f\":1",
                        "\"t1\":1,\"t1f\":2"),
                "obs/event-time");
  // Sample interval running backward.
  ExpectInvalid(Replace(GoodLog(), "\"sample\",\"link\":0,\"t0\":0.5,"
                                   "\"t1\":1",
                        "\"sample\",\"link\":0,\"t0\":1,\"t1\":0.5"),
                "obs/event-time");
  // A sample with zero active flows cannot exist (samples are emitted
  // only while flows are in flight).
  ExpectInvalid(Replace(GoodLog(), "\"flows\":1}", "\"flows\":0}"),
                "obs/event-time");
}

TEST(ObsEventsValidatorTest, AttributionByName) {
  // A flow naming an unknown link makes the explain engine fail, which
  // the attribution validator surfaces under its own invariant.
  obs::EventLog bad = ParseGood(
      Replace(GoodLog(), "\"links\":[0]", "\"links\":[3]"));
  Status attr = check::CheckEventAttribution(bad);
  ASSERT_FALSE(attr.ok());
  EXPECT_EQ(attr.message().rfind("obs/event-attribution", 0), 0u)
      << attr.message();
}

}  // namespace
}  // namespace gnnpart
