#ifndef GNNPART_NET_FLOWSIM_H_
#define GNNPART_NET_FLOWSIM_H_

#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "obs/events.h"

namespace gnnpart {
namespace net {

/// Discrete-event flow simulation over a Fabric (DESIGN.md §10).
///
/// Time is flow-level, not packet-level: between events every active flow
/// drains at its max-min fair share of the links it crosses; events are
/// flow arrivals and completions. On top of the bandwidth term each flow is
/// charged `latency_rounds * config.link_latency` (the α of the α-β model).
///
/// Bit-exactness contract: a flow whose fair-share rate never changes —
/// true for every flow on an uncontended link, hence for *all* flows on the
/// full-bisection fabric — completes at exactly
///
///     (start + bytes / rate) + latency_rounds * link_latency
///
/// with that floating-point association, which is the legacy closed-form
/// charge of both epoch simulators. The engine guarantees this by anchoring
/// each flow at (anchor_time, remaining_bytes) and re-anchoring ONLY when
/// the flow's rate actually changes (bitwise comparison), so uncontended
/// flows accumulate no intermediate rounding.

/// One flow: `bytes` from `host`, eligible at simulated time `start`,
/// crossing `links` (indices into Fabric::links()), plus `latency_rounds`
/// message rounds charged after the last byte drains.
struct Flow {
  int host = 0;
  /// Destination host when the originating route serves exactly one; -1
  /// for aggregate routes (see Route::dst). Accounting only — the engine
  /// never reads it.
  int dst = -1;
  double start = 0;
  double bytes = 0;
  double latency_rounds = 0;
  /// Weighted max-min fair share: on a contended link a flow receives
  /// `weight / (sum of crossing weights)` of the bottleneck capacity.
  /// Must be finite and > 0. With every weight at 1.0 the arithmetic is
  /// bit-identical to the unweighted engine (the weight sums are the
  /// integer flow counts and `fair * 1.0` is exact), which is what pins
  /// all the pre-existing net_test closed forms. gnnpart::serve uses
  /// weights > 1 so latency-critical serving flows preempt bulk
  /// co-tenant training traffic (DESIGN.md §15).
  double weight = 1.0;
  std::vector<int> links;
};

/// Aggregate accounting across SimulatePhase calls; all fields accumulate,
/// so one LinkUsage can absorb a whole epoch (or be merged from per-chunk
/// partials in deterministic chunk order — see MergeFrom).
struct LinkUsage {
  std::vector<double> link_bytes;         // delivered bytes per link
  std::vector<double> link_busy_seconds;  // seconds with >= 1 active flow
  std::vector<double> host_egress_bytes;  // per source host, from flows
  std::vector<double> host_offered_bytes; // per source host, as specified
  uint64_t phases = 0;
  uint64_t flows = 0;

  /// Sizes the vectors for `fabric` (idempotent).
  void EnsureShape(const Fabric& fabric);
  /// Element-wise accumulation; used to fold per-chunk partials in chunk
  /// order so the totals stay thread-count independent.
  void MergeFrom(const LinkUsage& other);
};

/// Runs the flows to completion and returns the per-flow completion time
/// (bandwidth term + latency rounds). `usage`, when non-null, accrues link
/// bytes/busy time and per-host egress bytes. Deterministic: ties in
/// arrival order break on flow index, bottleneck ties on link index. Each
/// call adds its event and water-fill round counts to the det:true
/// counters `net/flowsim/events` and `net/flowsim/fill_rounds`, and the
/// member counts of the components it water-filled, summed, to
/// `net/flowsim/fill_members`.
///
/// `log`, when non-null, gets the run's event records (DESIGN.md §14) on
/// the call-local clock, for obs::EventLog::Append to shift onto a
/// timeline: one kFlow per flow, in flow order, then one kSample per link
/// crossed by an active flow per event interval, in event order and link
/// index order within. A flow's `t1` is its completion; its `t1_free` is
/// the α-β closed form it would have met alone on the fabric,
/// (start + bytes / min-capacity-over-links) + rounds * latency with that
/// floating-point association, clamped to `t1`. An uncontended flow has
/// t1 == t1_free bitwise, so its congestion is exactly zero. Flow records
/// carry no (step, phase); the appender stamps them. A null log records
/// nothing.
std::vector<double> SimulateFlows(const Fabric& fabric,
                                  const std::vector<Flow>& flows,
                                  LinkUsage* usage,
                                  std::vector<obs::Event>* log = nullptr);

/// One BSP communication phase: per host, `bytes[h]` of egress traffic
/// becomes eligible at `start[h]` (the host's serial pre-comm work) and is
/// charged `rounds[h]` latency rounds. Hosts with zero bytes complete at
/// start[h] + rounds[h] * latency without entering the event engine.
struct PhaseSpec {
  std::vector<double> start;
  std::vector<double> bytes;
  std::vector<double> rounds;

  explicit PhaseSpec(size_t hosts = 0)
      : start(hosts, 0.0), bytes(hosts, 0.0), rounds(hosts, 0.0) {}
};

/// Expands the phase onto the fabric's routes, runs the event engine, and
/// returns each host's completion time (max over the host's flows). On the
/// full-bisection fabric this is bit-exactly the legacy closed form
/// (start + bytes/B) + rounds*latency for every host.
std::vector<double> SimulatePhase(const Fabric& fabric, const PhaseSpec& spec,
                                  LinkUsage* usage,
                                  std::vector<obs::Event>* log = nullptr);

/// Expands `bytes` of egress from `host` onto the fabric's routes and
/// appends the resulting flows (eligible at `start`, charged `rounds`
/// latency rounds, fair-share weight `weight`) to `*flows`. Returns the
/// number of flows appended. This is exactly SimulatePhase's route
/// expansion — multi-route hosts split bytes by route weight with the
/// last route taking the remainder, so the shares sum to `bytes` bitwise —
/// exposed so callers (gnnpart::serve) can pool flows from many logical
/// phases into one SimulateFlows run on a shared fabric.
size_t AppendHostFlows(const Fabric& fabric, int host, double start,
                       double bytes, double rounds, double weight,
                       std::vector<Flow>* flows);

/// The α-β closed form of one host's traffic alone on the fabric:
/// (start + bytes / nic_bandwidth) + rounds * link_latency, read from the
/// fabric's own NetworkConfig, with that floating-point association — so on
/// the full-bisection fabric it is SimulatePhase's per-host completion,
/// bitwise. gnnpart::serve builds its uncontended timetable from it.
double UncontendedFinish(const Fabric& fabric, double start, double bytes,
                         double rounds);

/// The fabric's links as the event log declares them
/// (obs::EventLog::DeclareLinks), in link index order.
std::vector<obs::EventLink> EventLinks(const Fabric& fabric);

/// Completion instant of the phase's barrier: the max over hosts of
/// SimulatePhase's per-host completion times (0 when the fabric has no
/// hosts; ties keep the lowest host index, which max over a left-to-right
/// scan gives for free). Convenience for callers that only need the BSP
/// barrier — e.g. migration pricing in gnnpart::dyn, where one repartition
/// event is one phase and only its makespan enters the cost curve.
double PhaseBarrierSeconds(const Fabric& fabric, const PhaseSpec& spec,
                           LinkUsage* usage);

}  // namespace net
}  // namespace gnnpart

#endif  // GNNPART_NET_FLOWSIM_H_
