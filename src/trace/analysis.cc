#include "trace/analysis.h"

#include <algorithm>

namespace gnnpart {
namespace trace {
namespace {

using obs::Event;
using obs::kNumPhases;
using obs::Phase;

// Dense per-(step, phase) accumulator filled in one pass over the spans.
struct Cell {
  double max_seconds = 0;
  double sum_seconds = 0;
  uint64_t count = 0;
  uint32_t straggler = 0;
  bool seen = false;
};

// A span record the passes can index: inside the declared epoch shape
// (malformed records are skipped defensively; ValidateTrace names them).
bool InShape(const Event& e, const obs::EpochEvents& epoch) {
  return e.kind == Event::Kind::kSpan && e.step < epoch.steps && e.src >= 0 &&
         static_cast<uint32_t>(e.src) < epoch.workers;
}

// cells[step * kNumPhases + phase]; sized (steps x kNumPhases).
std::vector<Cell> AccumulateCells(const obs::EpochEvents& epoch) {
  std::vector<Cell> cells(static_cast<size_t>(epoch.steps) * kNumPhases);
  for (const Event& s : epoch.events) {
    if (!InShape(s, epoch)) continue;
    Cell& c = cells[static_cast<size_t>(s.step) * kNumPhases +
                    static_cast<size_t>(s.phase)];
    const double d = s.dur;
    const uint32_t worker = static_cast<uint32_t>(s.src);
    if (!c.seen || d > c.max_seconds) {
      c.max_seconds = d;
      c.straggler = worker;
      c.seen = true;
    } else if (d == c.max_seconds && worker < c.straggler) {
      c.straggler = worker;
    }
    c.sum_seconds += d;
    ++c.count;
  }
  return cells;
}

}  // namespace

const std::vector<Phase>& StepPhases(const std::string& sim) {
  static const std::vector<Phase> kDistDgl = {
      Phase::kSampling, Phase::kFeature, Phase::kForward, Phase::kBackward,
      Phase::kUpdate};
  static const std::vector<Phase> kDistGnn = {
      Phase::kForwardCompute, Phase::kForwardSync, Phase::kBackwardCompute,
      Phase::kBackwardSync, Phase::kOptimizer};
  static const std::vector<Phase> kServe = {
      Phase::kQueue, Phase::kSampling, Phase::kFeature, Phase::kForward};
  static const std::vector<Phase> kNone = {};
  if (sim == "distdgl") return kDistDgl;
  if (sim == "distgnn") return kDistGnn;
  if (sim == "serve") return kServe;
  return kNone;
}

double ChunkedSum(const double* values, size_t n, size_t grain) {
  if (grain == 0) grain = 1;
  double total = 0;
  for (size_t begin = 0; begin < n; begin += grain) {
    const size_t end = std::min(n, begin + grain);
    double partial = 0;
    for (size_t i = begin; i < end; ++i) partial += values[i];
    total += partial;
  }
  return total;
}

std::vector<StepPhaseStat> ComputeStepPhaseStats(
    const obs::EpochEvents& epoch) {
  const std::vector<Cell> cells = AccumulateCells(epoch);
  const std::vector<Phase>& phases = StepPhases(epoch.sim);
  std::vector<StepPhaseStat> stats;
  stats.reserve(cells.size());
  for (uint32_t step = 0; step < epoch.steps; ++step) {
    for (Phase phase : phases) {
      const Cell& c = cells[static_cast<size_t>(step) * kNumPhases +
                            static_cast<size_t>(phase)];
      if (c.count == 0) continue;
      StepPhaseStat st;
      st.step = step;
      st.phase = phase;
      st.straggler = c.straggler;
      st.max_seconds = c.max_seconds;
      st.mean_seconds = c.sum_seconds / static_cast<double>(c.count);
      st.wait_seconds =
          static_cast<double>(c.count) * c.max_seconds - c.sum_seconds;
      stats.push_back(st);
    }
  }
  return stats;
}

double WorkerBlame::total_blame() const {
  double total = 0;
  for (double s : blame_seconds) total += s;
  return total;
}

double WorkerBlame::total_wait() const {
  double total = 0;
  for (double s : wait_seconds) total += s;
  return total;
}

uint64_t WorkerBlame::total_steps_blamed() const {
  uint64_t total = 0;
  for (uint64_t n : steps_blamed) total += n;
  return total;
}

std::vector<WorkerBlame> ComputeWorkerBlame(const obs::EpochEvents& epoch) {
  std::vector<WorkerBlame> blame(epoch.workers);
  for (uint32_t w = 0; w < epoch.workers; ++w) blame[w].worker = w;
  const std::vector<Cell> cells = AccumulateCells(epoch);
  // Charge each barrier's cost to its straggler...
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (c.count == 0 || c.straggler >= blame.size()) continue;
    const size_t phase = i % kNumPhases;
    blame[c.straggler].blame_seconds[phase] += c.max_seconds;
    ++blame[c.straggler].steps_blamed[phase];
  }
  // ...and each worker's idle time at it to the worker itself.
  for (const Event& s : epoch.events) {
    if (!InShape(s, epoch)) continue;
    const Cell& c = cells[static_cast<size_t>(s.step) * kNumPhases +
                          static_cast<size_t>(s.phase)];
    WorkerBlame& wb = blame[static_cast<size_t>(s.src)];
    wb.wait_seconds[static_cast<size_t>(s.phase)] += c.max_seconds - s.dur;
    wb.busy_seconds += s.dur;
  }
  return blame;
}

namespace {

// Per-step phase maxima in step order, 0 for steps without the phase.
std::vector<double> StepMaxima(const std::vector<Cell>& cells, uint32_t steps,
                               Phase phase) {
  std::vector<double> maxima(steps, 0);
  for (uint32_t step = 0; step < steps; ++step) {
    const Cell& c = cells[static_cast<size_t>(step) * kNumPhases +
                          static_cast<size_t>(phase)];
    if (c.count > 0) maxima[step] = c.max_seconds;
  }
  return maxima;
}

}  // namespace

DistDglPhaseSeconds ReconstructDistDglReport(const obs::EpochEvents& epoch) {
  DistDglPhaseSeconds r;
  const std::vector<Cell> cells = AccumulateCells(epoch);
  const uint32_t steps = epoch.steps;
  auto total = [&](Phase phase) {
    std::vector<double> maxima = StepMaxima(cells, steps, phase);
    return ChunkedSum(maxima.data(), maxima.size(), epoch.grain);
  };
  r.sampling = total(Phase::kSampling);
  r.feature = total(Phase::kFeature);
  r.forward = total(Phase::kForward);
  r.backward = total(Phase::kBackward);
  r.update = total(Phase::kUpdate);
  // Same left-to-right grouping as SimulateDistDglEpoch.
  r.epoch = r.sampling + r.feature + r.forward + r.backward + r.update;
  return r;
}

DistGnnPhaseSeconds ReconstructDistGnnReport(const obs::EpochEvents& epoch) {
  DistGnnPhaseSeconds r;
  if (epoch.steps == 0) return r;
  const std::vector<Cell> cells = AccumulateCells(epoch);
  // DistGNN epochs use step = layer for the per-layer phases and one extra
  // pseudo-step (the last) for the optimizer.
  const uint32_t layers = epoch.steps - 1;
  std::vector<double> fwd_c = StepMaxima(cells, layers, Phase::kForwardCompute);
  std::vector<double> fwd_s = StepMaxima(cells, layers, Phase::kForwardSync);
  std::vector<double> bwd_c =
      StepMaxima(cells, layers, Phase::kBackwardCompute);
  std::vector<double> bwd_s = StepMaxima(cells, layers, Phase::kBackwardSync);
  // Ascending layer order with the simulator's per-layer grouping; the
  // timeline replays the backward pass in reverse layer order, but the
  // report sums it forward, and FP addition is order-sensitive.
  for (uint32_t l = 0; l < layers; ++l) {
    r.forward += fwd_c[l] + fwd_s[l];
    r.backward += bwd_c[l] + bwd_s[l];
    r.sync += 2.0 * fwd_s[l];
  }
  const Cell& opt = cells[static_cast<size_t>(layers) * kNumPhases +
                          static_cast<size_t>(Phase::kOptimizer)];
  if (opt.count > 0) r.optimizer = opt.max_seconds;
  r.epoch = r.forward + r.backward + r.optimizer;
  return r;
}

}  // namespace trace
}  // namespace gnnpart
