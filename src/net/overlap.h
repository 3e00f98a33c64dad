#ifndef GNNPART_NET_OVERLAP_H_
#define GNNPART_NET_OVERLAP_H_

#include <cstdint>
#include <vector>

#include "obs/events.h"

namespace gnnpart {
namespace net {

/// Communication/computation overlap analysis over one simulated epoch of
/// the event log (DESIGN.md §10). Its spans carry both their total duration
/// and the communication share (Event::comm); replaying them under a
/// pipelined schedule answers the ROADMAP question "how much of each
/// partitioner's advantage survives pipelining".
///
/// Model: within one step (mini-batch step / DistGNN layer), each
/// worker's communication slides under its computation up to the per-host
/// NIC cap — the comm totals already price bandwidth/contention through
/// gnnpart::net, so full overlap within the step is the cap. The pipelined
/// step cost is therefore
///
///     max over workers of max(sum compute_w, sum comm_w)
///
/// against the BSP cost of sum over phases of max over workers. Pipelined
/// never exceeds BSP (each term of the inner max is bounded by the BSP
/// sum), so hidden time is non-negative by construction.

/// One step of the pipelined schedule.
struct StepOverlap {
  uint32_t step = 0;
  double bsp_seconds = 0;        // sum over phases of the worker max
  double pipelined_seconds = 0;  // max_w max(compute_w, comm_w)
  /// Worker attaining the pipelined maximum (lowest id on ties).
  uint32_t straggler = 0;
  /// Whether the straggler is communication-bound (comm >= compute).
  bool comm_bound = false;
};

/// Epoch-level result of replaying an epoch under pipelining.
struct OverlapReport {
  double bsp_epoch_seconds = 0;
  double pipelined_epoch_seconds = 0;
  /// bsp - pipelined: the communication time hidden under compute.
  double hidden_seconds = 0;
  std::vector<StepOverlap> steps;
  /// Pipelined step cost charged to each step's straggler (the
  /// overlap-adjusted analogue of trace::WorkerBlame).
  std::vector<double> worker_pipelined_blame;
  /// Per-worker epoch totals of the comm / compute split.
  std::vector<double> worker_comm_seconds;
  std::vector<double> worker_compute_seconds;
};

/// Replays the epoch's spans under the pipelined schedule, skipping the
/// other record kinds. Serial and deterministic: iteration is in log order
/// and per-step worker order, so the result is byte-identical for every
/// thread count.
OverlapReport ComputeOverlap(const obs::EpochEvents& epoch);

}  // namespace net
}  // namespace gnnpart

#endif  // GNNPART_NET_OVERLAP_H_
