#ifndef GNNPART_TRACE_EXPLAIN_H_
#define GNNPART_TRACE_EXPLAIN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/events.h"

namespace gnnpart {
namespace trace {

/// The `explain` attribution engine (DESIGN.md §14): decomposes a run's
/// causal event timeline into the four components of its critical path —
/// compute, barrier wait, congestion, migration — and names the links,
/// partition pairs and straggler workers responsible.
///
/// Methodology. Each (step, phase) barrier costs its straggler's duration
/// d; the straggler's span splits into compute (d - comm) and
/// communication, and the communication splits into congestion — the gap
/// max(t1) - max(t1f) between the straggler's slowest actual flow
/// completion and its slowest uncontended alpha-beta completion — and the
/// uncontended remainder, which is time the barrier waits on the network
/// even with zero contention. Congestion is identically 0.0 (bitwise) on
/// a full-bisection fabric because every flow then owns its bottleneck.
///
/// "serve" epochs (gnnpart::serve, one step per dispatched batch) have no
/// BSP barriers; each batch decomposes directly — queue spans into
/// queueing, the other spans into compute (dur - comm) plus communication,
/// and the communication into congestion (flow lateness, as above) and the
/// uncontended remainder. Queueing rides the wait component, so the
/// four-way sum identity below is unchanged.
///
/// Bit-exactness. The reported components satisfy
///   total == ((compute + wait) + congestion) + migration
/// with == on doubles: `total_seconds` is defined as that component sum.
/// `wait` is solved (SolveWait) so the sum lands on the canonical sum of
/// the reconstructed per-epoch seconds (bit-equal to the simulators'
/// reports, see trace/analysis.h) plus the migration windows; it hits that
/// target exactly whenever it is representable as this association —
/// always observed for single-epoch runs — and otherwise the reported
/// total is the nearest achievable sum, a few ulps away (ComputeExplain
/// fails rather than report a total further off). `wait` is cross-checked
/// against the independently summed uncontended communication
/// (`uncontended_comm_seconds`); the two agree up to FP grouping
/// differences, which the obs/event-attribution validator bounds.

/// Solves w such that ((compute + w) + congestion) + migration == total
/// bitwise when such a double exists, starting from the algebraic residual
/// and nudging by ulps; when the target sits in a rounding gap of the sum
/// chain, returns the w whose sum is closest.
double SolveWait(double total, double compute, double congestion,
                 double migration);

/// One fabric link's contention profile, aggregated over every utilization
/// sample and flow of the log.
struct LinkContention {
  int link = 0;
  std::string name;
  double capacity = 0;         // bytes/s
  double bytes = 0;            // bytes that transited the link
  double busy_seconds = 0;     // time with >= 1 active flow
  double contended_seconds = 0;  // time with >= 2 active flows
  double peak_utilization = 0;   // max over samples of rate / capacity
  /// busy_seconds over the run's observation window (the run total, or the
  /// link's busy time when that is longer).
  double utilization = 0;
  /// Time-weighted p99 of utilization over the same observation window
  /// (idle time counts at 0).
  double p99_utilization = 0;

  /// A (src, dst) partition pair's bytes over this link; dst -1 means an
  /// aggregate route (fans out to several destinations).
  struct Talker {
    int src = 0;
    int dst = -1;
    double bytes = 0;
  };
  /// All talkers, bytes descending, ties by (src, dst) ascending.
  std::vector<Talker> talkers;
};

/// One worker's straggler accounting across the training epochs of the
/// log, each column summed in epoch order: the barrier blame/wait/busy
/// split of trace::ComputeWorkerBlame and the pipelined-schedule split of
/// net::ComputeOverlap. For a one-epoch log every field is bit-equal to
/// those two passes over the epoch.
struct StragglerStat {
  int worker = 0;
  /// Seconds the whole cluster spent at each phase's barriers because this
  /// worker was slowest, indexed by obs::Phase.
  std::array<double, obs::kNumPhases> phase_blame_seconds{};
  double blame_seconds = 0;
  uint64_t steps_blamed = 0;
  /// Seconds this worker idled at barriers.
  double wait_seconds = 0;
  /// Sum of the worker's own span durations.
  double busy_seconds = 0;
  /// Pipelined step cost charged to this worker as the step's straggler.
  double pipelined_blame_seconds = 0;
  double comm_seconds = 0;
  double compute_seconds = 0;
};

/// One epoch's attribution.
struct EpochExplain {
  std::string sim;
  /// Reconstructed epoch seconds — bit-equal to the simulator's report for
  /// training epochs; for "serve" epochs the canonical component sum
  /// ((compute + (queue + uncontended)) + congestion), i.e. the serialized
  /// request critical path.
  double epoch_seconds = 0;
  double compute_seconds = 0;
  double congestion_seconds = 0;
  double uncontended_comm_seconds = 0;
  /// Request queueing time (sum of "queue" span durations); non-zero only
  /// in "serve" epochs, where batching holds requests before dispatch.
  double queue_seconds = 0;
};

/// Attribution of a whole run.
struct ExplainReport {
  /// total == ((compute + wait) + congestion) + migration, bitwise.
  double total_seconds = 0;
  double compute_seconds = 0;
  double wait_seconds = 0;
  double congestion_seconds = 0;
  double migration_seconds = 0;
  /// Independent cross-check for wait_seconds (see file comment). For
  /// "serve" epochs the solved wait also absorbs queue_seconds, so the
  /// cross-check target is uncontended_comm_seconds + queue_seconds.
  double uncontended_comm_seconds = 0;
  /// Total request queueing time over the log's "serve" epochs.
  double queue_seconds = 0;
  std::vector<EpochExplain> epochs;
  /// Links that carried traffic, ranked: contended_seconds descending,
  /// ties by peak_utilization descending, then link id ascending.
  std::vector<LinkContention> links;
  /// Workers ranked by blame_seconds descending, ties by id ascending.
  std::vector<StragglerStat> stragglers;
  /// The training epochs replayed under the pipelined schedule
  /// (net::ComputeOverlap), summed in epoch order; hidden is bsp minus
  /// pipelined per epoch.
  double bsp_seconds = 0;
  double pipelined_seconds = 0;
  double hidden_seconds = 0;
};

/// Computes the full attribution of an event log. Pure: bit-identical for
/// a given log, whether collected in-process or loaded from a file.
Result<ExplainReport> ComputeExplain(const obs::EventLog& log);

}  // namespace trace
}  // namespace gnnpart

#endif  // GNNPART_TRACE_EXPLAIN_H_
