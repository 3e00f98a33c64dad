// gnnpart::obs registry, manifest, and determinism-contract tests:
//
//   * counters/gauges/histograms merged across thread-local shards are
//     bit-identical for --threads 1/2/8 (the canonical DumpDeterministic
//     byte-equality from DESIGN.md §9);
//   * histogram bucket boundaries are inclusive upper bounds, with the
//     overflow bucket at the end;
//   * the manifest round-trips through the strict parser, and corrupted
//     manifests are rejected with invariant-named errors
//     (manifest/bad-json, manifest/missing-meta, ...).
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/timer.h"
#include "obs/manifest.h"
#include "obs/memory.h"
#include "obs/metrics.h"

namespace gnnpart {
namespace {

using obs::Manifest;
using obs::MetricKind;
using obs::MetricRow;

const MetricRow* FindRow(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  for (const MetricRow& row : snap.rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

TEST(ObsCounterTest, AccumulatesAcrossParallelChunks) {
  obs::ResetForTest();
  const obs::Counter counter = obs::GetCounter("test/parallel_adds", "ops");
  ParallelFor(10000, 64, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) counter.Inc();
  });
  const obs::MetricsSnapshot snap = obs::Snapshot();
  const MetricRow* row = FindRow(snap, "test/parallel_adds");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->value, 10000u);
  EXPECT_TRUE(row->deterministic);
}

TEST(ObsCounterTest, SameNameReturnsSameMetric) {
  obs::ResetForTest();
  obs::GetCounter("test/dedup", "ops").Add(3);
  obs::GetCounter("test/dedup", "ops").Add(4);
  const obs::MetricsSnapshot snap = obs::Snapshot();
  const MetricRow* row = FindRow(snap, "test/dedup");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->value, 7u);
}

TEST(ObsGaugeTest, MaxIsHighWater) {
  obs::ResetForTest();
  const obs::Gauge gauge = obs::GetGauge("test/gauge", "bytes");
  gauge.Max(10);
  gauge.Max(3);
  gauge.Max(25);
  const obs::MetricsSnapshot snap = obs::Snapshot();
  const MetricRow* row = FindRow(snap, "test/gauge");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->level, 25);
}

TEST(ObsHistogramTest, BucketBoundsAreInclusiveUpperLimits) {
  obs::ResetForTest();
  const obs::Histogram hist =
      obs::GetHistogram("test/hist_bounds", "v", {10, 20, 40});
  hist.Observe(0);    // <= 10 -> bucket 0
  hist.Observe(10);   // == bound, inclusive -> bucket 0
  hist.Observe(11);   // bound+1 -> bucket 1
  hist.Observe(20);   // bucket 1
  hist.Observe(40);   // bucket 2
  hist.Observe(41);   // overflow bucket
  hist.Observe(~0ULL);  // max value -> overflow bucket
  const obs::MetricsSnapshot snap = obs::Snapshot();
  const MetricRow* row = FindRow(snap, "test/hist_bounds");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->bounds, (std::vector<uint64_t>{10, 20, 40}));
  EXPECT_EQ(row->buckets, (std::vector<uint64_t>{2, 2, 1, 2}));
  EXPECT_EQ(row->count, 7u);
  EXPECT_EQ(row->sum, 0 + 10 + 11 + 20 + 40 + 41 + ~0ULL);
}

TEST(ObsHistogramTest, Pow2BucketsShape) {
  const std::vector<uint64_t> bounds = obs::Pow2Buckets(5);
  EXPECT_EQ(bounds, (std::vector<uint64_t>{1, 2, 4, 8, 16}));
}

// The tentpole acceptance criterion: the canonical deterministic dump is
// byte-equal for 1, 2, and 8 threads over a parallel workload that
// registers some of its metrics *inside* the parallel region (registration
// order races are absorbed by the name-sorted serialization).
TEST(ObsDeterminismTest, DumpByteEqualForOneTwoEightThreads) {
  auto workload = [] {
    obs::ResetForTest();
    const obs::Counter edges = obs::GetCounter("det/edges", "edges");
    const obs::Histogram sizes =
        obs::GetHistogram("det/sizes", "v", obs::Pow2Buckets(16));
    ParallelFor(5000, 16, [&](size_t begin, size_t end, size_t chunk) {
      // First-touch registration inside the region, from whichever thread
      // runs this chunk first.
      obs::GetCounter("det/chunk_touched", "chunks").Inc();
      uint64_t local = 0;
      for (size_t i = begin; i < end; ++i) {
        local += i % 7;
        sizes.Observe(i % 1024);
      }
      edges.Add(local);
      obs::GaugeMax("det/max_chunk", static_cast<int64_t>(chunk));
    });
    // Timers must not leak into the deterministic surface.
    obs::GetTimer("det/wall").Record(0.125);
    std::string dump;
    obs::DumpDeterministic(&dump);
    return dump;
  };
  SetDefaultThreads(1);
  const std::string dump1 = workload();
  SetDefaultThreads(2);
  const std::string dump2 = workload();
  SetDefaultThreads(8);
  const std::string dump8 = workload();
  SetDefaultThreads(1);
  EXPECT_FALSE(dump1.empty());
  EXPECT_EQ(dump1, dump2);
  EXPECT_EQ(dump1, dump8);
  EXPECT_EQ(dump1.find("det/wall"), std::string::npos)
      << "timers are det:false and must be excluded from the canonical dump";
}

TEST(ObsTimerTest, WallTimerDisabledNeverReadsClock) {
  WallTimer disabled = WallTimer::Disabled();
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.ElapsedSeconds(), 0.0);
  WallTimer eager;
  EXPECT_TRUE(eager.enabled());
  EXPECT_GE(eager.ElapsedSeconds(), 0.0);
}

TEST(ObsTimerTest, ScopedTimerHonorsTimingSwitch) {
  obs::ResetForTest();
  obs::EnableTiming(false);
  { obs::ScopedTimer scope("test/timer_off"); }
  obs::EnableTiming(true);
  { obs::ScopedTimer scope("test/timer_on"); }
  obs::EnableTiming(false);
  const obs::MetricsSnapshot snap = obs::Snapshot();
  const MetricRow* off = FindRow(snap, "test/timer_off");
  const MetricRow* on = FindRow(snap, "test/timer_on");
  ASSERT_NE(off, nullptr);
  ASSERT_NE(on, nullptr);
  EXPECT_EQ(off->count, 0u) << "timing disabled: no clock read, no record";
  EXPECT_EQ(on->count, 1u);
  EXPECT_FALSE(on->deterministic);
}

TEST(ObsMemoryTest, StructureBytesIsMaxGauge) {
  obs::ResetForTest();
  obs::RecordStructureBytes("test_structure", 100);
  obs::RecordStructureBytes("test_structure", 50);
  const obs::MetricsSnapshot snap = obs::Snapshot();
  const MetricRow* row = FindRow(snap, "mem/test_structure_bytes");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->level, 100);
}

TEST(ObsMemoryTest, PeakRssIsPositiveOnLinux) {
#if defined(__linux__)
  EXPECT_GT(obs::PeakRssBytes(), 0u);
#endif
}

TEST(ObsManifestTest, RoundTripsThroughStrictParser) {
  obs::ResetForTest();
  obs::GetCounter("rt/counter", "edges").Add(42);
  obs::GetGauge("rt/gauge", "bytes").Set(-7);
  obs::GetHistogram("rt/hist", "v", {1, 2}).Observe(2);
  obs::GetTimer("rt/timer").Record(0.5);
  std::string text;
  obs::WriteManifest(obs::Snapshot(), {{"tool", "obs_test"}}, &text);

  Result<Manifest> manifest = obs::ParseManifest(text);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->version, obs::kManifestVersion);
  ASSERT_EQ(manifest->meta.size(), 1u);
  EXPECT_EQ(manifest->meta[0].first, "tool");
  EXPECT_EQ(manifest->meta[0].second, "obs_test");

  bool saw_counter = false, saw_gauge = false, saw_hist = false,
       saw_timer = false;
  for (const MetricRow& row : manifest->rows) {
    if (row.name == "rt/counter") {
      saw_counter = true;
      EXPECT_EQ(row.kind, MetricKind::kCounter);
      EXPECT_EQ(row.value, 42u);
      EXPECT_EQ(row.unit, "edges");
      EXPECT_TRUE(row.deterministic);
    } else if (row.name == "rt/gauge") {
      saw_gauge = true;
      EXPECT_EQ(row.kind, MetricKind::kGauge);
      EXPECT_EQ(row.level, -7);
    } else if (row.name == "rt/hist") {
      saw_hist = true;
      EXPECT_EQ(row.kind, MetricKind::kHistogram);
      EXPECT_EQ(row.bounds, (std::vector<uint64_t>{1, 2}));
      EXPECT_EQ(row.buckets, (std::vector<uint64_t>{0, 1, 0}));
      EXPECT_EQ(row.count, 1u);
      EXPECT_EQ(row.sum, 2u);
    } else if (row.name == "rt/timer") {
      saw_timer = true;
      EXPECT_EQ(row.kind, MetricKind::kTimer);
      EXPECT_FALSE(row.deterministic);
      EXPECT_DOUBLE_EQ(row.seconds, 0.5);
      EXPECT_EQ(row.count, 1u);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_hist && saw_timer);
}

// Corrupted-manifest rejection, named like gnnpart::check invariants.
constexpr char kMeta[] =
    R"({"type":"meta","schema":"gnnpart.metrics","version":1})"
    "\n";

void ExpectRejected(const std::string& text, const std::string& invariant) {
  Result<Manifest> manifest = obs::ParseManifest(text);
  ASSERT_FALSE(manifest.ok()) << "parsed despite " << invariant;
  EXPECT_NE(manifest.status().ToString().find(invariant), std::string::npos)
      << "wanted " << invariant << ", got " << manifest.status();
}

TEST(ObsManifestTest, IntegersRoundTripExactly) {
  // Values past 2^53 that a double would round: an fnv1a64 digest row of
  // BENCH_study.json, both int64 ends and the largest counter.
  const std::string text =
      std::string(kMeta) +
      R"({"type":"gauge","name":"study/ablation/hdrf_lambda/0.0/digest",)"
      R"("unit":"fnv1a64","det":true,"value":-5643145515841345690})" "\n"
      R"({"type":"gauge","name":"min","unit":"","det":true,)"
      R"("value":-9223372036854775808})" "\n"
      R"({"type":"gauge","name":"max","unit":"","det":true,)"
      R"("value":9223372036854775807})" "\n"
      R"({"type":"counter","name":"top","unit":"","det":true,)"
      R"("value":18446744073709551615})" "\n";
  Result<Manifest> manifest = obs::ParseManifest(text);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_EQ(manifest->rows.size(), 4u);
  EXPECT_EQ(manifest->rows[0].level, -5643145515841345690LL);
  EXPECT_EQ(manifest->rows[1].level, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(manifest->rows[2].level, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(manifest->rows[3].value, std::numeric_limits<uint64_t>::max());
  std::string again;
  obs::WriteManifest(obs::MetricsSnapshot{manifest->rows}, {}, &again);
  EXPECT_EQ(again, text);
  // One past UINT64_MAX would saturate in strtoull; it is rejected instead.
  ExpectRejected(std::string(kMeta) +
                     R"({"type":"counter","name":"x","unit":"","det":true,)"
                     R"("value":18446744073709551616})"
                     "\n",
                 "manifest/bad-json");
}

TEST(ObsManifestTest, RejectsBadJson) {
  ExpectRejected(std::string(kMeta) + "{\"type\":\"counter\",\n",
                 "manifest/bad-json");
}

TEST(ObsManifestTest, RejectsMissingMeta) {
  ExpectRejected(
      R"({"type":"counter","name":"x","unit":"","det":true,"value":1})" "\n",
      "manifest/missing-meta");
  ExpectRejected("", "manifest/missing-meta");
}

TEST(ObsManifestTest, RejectsWrongSchema) {
  ExpectRejected(
      R"({"type":"meta","schema":"other.schema","version":1})" "\n",
      "manifest/schema");
}

TEST(ObsManifestTest, RejectsFutureVersion) {
  ExpectRejected(
      R"({"type":"meta","schema":"gnnpart.metrics","version":999})" "\n",
      "manifest/schema-version");
}

TEST(ObsManifestTest, RejectsMissingField) {
  ExpectRejected(std::string(kMeta) +
                     R"({"type":"counter","name":"x","unit":"","det":true})"
                     "\n",
                 "manifest/missing-field");
}

TEST(ObsManifestTest, RejectsUnknownType) {
  ExpectRejected(std::string(kMeta) +
                     R"({"type":"sparkline","name":"x","unit":"","det":true})"
                     "\n",
                 "manifest/unknown-type");
}

TEST(ObsManifestTest, RejectsBucketShapeMismatch) {
  ExpectRejected(
      std::string(kMeta) +
          R"({"type":"histogram","name":"x","unit":"","det":true,)"
          R"("bounds":[1,2],"buckets":[0,1],"count":1,"sum":2})"
          "\n",
      "manifest/bucket-shape");
}

}  // namespace
}  // namespace gnnpart
