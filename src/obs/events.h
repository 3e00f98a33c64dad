#ifndef GNNPART_OBS_EVENTS_H_
#define GNNPART_OBS_EVENTS_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

/// Unified causal event timeline (DESIGN.md §14): one deterministic,
/// simulated-time log joining what the four instrumentation layers used to
/// keep privately — trace spans, flow completions, link utilization,
/// repartition/migration bursts, cache aggregates — so the `explain`
/// engine can attribute epoch time to compute / wait / congestion /
/// migration and name the links and flows responsible.
///
/// It is the only sink for simulated spans: the Chrome/CSV exporters, the
/// overlap analysis and every `explain` table read it. Discipline:
///   - null EventLog* = zero cost (one pointer test per emission site);
///   - all records are appended by the simulators' canonical serial
///     replays, so the stream is byte-identical for every `--threads N`;
///   - all times are simulated seconds on the run's single timeline
///     (Append shifts the flow engine's call-local records onto it) —
///     never wall clocks.
///
/// Serialized as schema-versioned JSON lines next to the run manifest:
///
///   {"type":"meta","schema":"gnnpart.events","version":1,...}
///   {"type":"link","id":0,"name":"nic0","capacity":1.25e+08}      (fabric)
///   {"type":"repartition","batch":2,"trigger":"period",...}       (run)
///   {"type":"migration","batch":2,"t0":...,"t1":...,"bytes":...}  (run)
///   {"type":"epoch","sim":"distdgl","steps":4,"workers":8,"grain":8}
///   {"type":"span","step":0,"worker":1,"phase":"sampling",
///    "t0":...,"dur":...,"comm":...,"bytes":...}
///   {"type":"flow","step":0,"phase":"sampling","src":1,"dst":-1,
///    "t0":...,"t1":...,"t1f":...,"bytes":...,"links":[1]}
///   {"type":"sample","link":1,"t0":...,"t1":...,"rate":...,"flows":2}
///   {"type":"cache","step":0,"hits":123,"misses":45}
///
/// Causality rules: a flow's `t1` is when its last byte + latency rounds
/// land, `t1f` is its uncontended α-β completion (t1 == t1f bitwise when
/// the flow never shared a bottleneck); a span's comm share ends at the
/// max `t1` over the (step, phase, worker)'s flows, so congestion is the
/// gap max(t1) − max(t1f) ≥ 0. Doubles serialize with %.17g and parse
/// with strtod, so attribution computed from a loaded file is bit-equal
/// to attribution computed in-process.
///
/// The strict parser rejects corruption with invariant-named errors:
/// events/bad-json, events/missing-meta, events/schema,
/// events/schema-version, events/missing-field, events/unknown-type,
/// events/unknown-phase, events/link-order, events/orphan-record.
namespace gnnpart::obs {

inline constexpr int kEventsVersion = 1;
inline constexpr const char* kEventsSchema = "gnnpart.events";

/// Phases of the simulated systems. The first five belong to DistDGL
/// mini-batch steps; the next five to DistGNN full-batch layers, where the
/// "step" of a span is the layer index (kOptimizer uses step = num_layers);
/// kQueue is the serving-only request queueing stage ("serve" epochs use
/// queue/sampling/feature/forward).
enum class Phase : uint8_t {
  // DistDGL (mini-batch, per step).
  kSampling = 0,
  kFeature,
  kForward,
  kBackward,
  kUpdate,
  // DistGNN (full-batch, per layer).
  kForwardCompute,
  kForwardSync,
  kBackwardCompute,
  kBackwardSync,
  kOptimizer,
  // Serving (per batch).
  kQueue,
};
inline constexpr int kNumPhases = 11;

/// Lower-case stable name ("sampling", "fwd_sync", "queue", ...); part of
/// the event and trace file formats.
const char* PhaseName(Phase phase);

/// One capacity-bearing fabric link, mirrored from net::Fabric so the
/// event file is self-contained (obs never depends on net).
struct EventLink {
  std::string name;
  double capacity = 0;
};

/// One epoch-scoped record. A tagged union kept flat (the few unused
/// fields per kind cost less than a variant and keep serialization dumb).
struct Event {
  enum class Kind : uint8_t { kSpan, kFlow, kSample, kCache };
  Kind kind = Kind::kSpan;
  uint32_t step = 0;
  int src = 0;       // span: worker; flow: source host
  int dst = -1;      // flow: destination host, -1 = aggregate route
  int link = -1;     // sample: link id
  Phase phase = Phase::kSampling;  // span/flow
  double t0 = 0;
  double t1 = 0;       // flow/sample end
  double t1_free = 0;  // flow: uncontended completion
  double dur = 0;      // span: duration
  double comm = 0;     // span: communication share of dur
  double rate = 0;     // sample: aggregate bytes/s
  double bytes = 0;    // span/flow: bytes
  uint64_t flows = 0;  // sample: active flow count
  uint64_t hits = 0;   // cache
  uint64_t misses = 0; // cache
  std::vector<int> links;  // flow: traversed link ids
};

/// One simulated epoch: header + its records in emission order.
struct EpochEvents {
  std::string sim;  // "distdgl" | "distgnn" | "serve"
  uint32_t steps = 0;
  uint32_t workers = 0;
  uint32_t grain = 0;  // ChunkedSum grain of the epoch reconstruction
  std::vector<Event> events;
};

/// One run-scoped record from the dynamic driver.
struct RunEvent {
  enum class Kind : uint8_t { kRepartition, kMigration };
  Kind kind = Kind::kRepartition;
  uint64_t batch = 0;
  std::string trigger;   // repartition: "period" | "quality"
  uint64_t moved = 0;    // repartition: entities moved
  uint64_t replicas = 0; // repartition: replicas created
  double bytes = 0;
  double t0 = 0;  // migration burst window on the run timeline
  double t1 = 0;
};

/// Append-only event collector. Epochs accumulate (a dynamic run keeps
/// one EpochEvents per batch); emission-time invariants are CHECK-level,
/// file-level corruption is the parser's and validators' business.
class EventLog {
 public:
  /// Declares the fabric once; a second call must pass identical links
  /// (the fabric never changes within a run).
  void DeclareLinks(const std::vector<EventLink>& links);

  /// Opens a new epoch; subsequent Add*/Append calls append to it.
  void BeginEpoch(const std::string& sim, uint32_t steps, uint32_t workers,
                  uint32_t grain);

  void AddSpan(uint32_t step, int worker, Phase phase, double t0, double dur,
               double comm, double bytes);
  void AddCache(uint32_t step, uint64_t hits, uint64_t misses);

  /// Makes room for `records` more records in the open epoch, so a replay
  /// that knows its record count appends into memory grown once.
  void Reserve(size_t records);

  /// Appends copies of `records` to the open epoch, shifted by `t`: their
  /// times (t0; t1 of flows and samples; t1_free of flows) gain `t`, and
  /// flows are stamped with (step, phase). net::SimulateFlows writes its
  /// flow and link-sample records on its call-local clock, so a simulator
  /// appends each phase's records at the instant `t` the phase began.
  void Append(std::span<const Event> records, double t, uint32_t step,
              Phase phase);

  void AddRepartition(uint64_t batch, const std::string& trigger,
                      uint64_t moved, uint64_t replicas, double bytes);
  void AddMigration(uint64_t batch, double t0, double t1, double bytes);

  const std::vector<EventLink>& links() const { return links_; }
  const std::vector<EpochEvents>& epochs() const { return epochs_; }
  const std::vector<RunEvent>& run_events() const { return run_events_; }

 private:
  std::vector<EventLink> links_;
  std::vector<EpochEvents> epochs_;
  std::vector<RunEvent> run_events_;
};

/// Serializes meta line + links + run records + epochs.
void WriteEvents(const EventLog& log,
                 const std::vector<std::pair<std::string, std::string>>& meta,
                 std::string* out);

Status WriteEventsFile(
    const EventLog& log, const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta);

/// Strict parse; rejects corruption with events/* invariant names. The
/// returned log's meta pairs are discarded (callers needing them keep the
/// raw text); record order is file order.
Result<EventLog> ParseEvents(const std::string& content);

Result<EventLog> LoadEventsFile(const std::string& path);

}  // namespace gnnpart::obs

#endif  // GNNPART_OBS_EVENTS_H_
