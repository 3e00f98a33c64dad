#include "trace/explain.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "net/overlap.h"
#include "trace/analysis.h"

namespace gnnpart {
namespace trace {
namespace {

using obs::Event;
using obs::kNumPhases;
using obs::Phase;

// A span or flow record explain can index: a phase of the epoch's kind and
// inside the declared epoch shape.
Status CheckRecord(const Event& e, const obs::EpochEvents& ep,
                   const std::vector<Phase>& phases) {
  if (std::find(phases.begin(), phases.end(), e.phase) == phases.end()) {
    return Status::InvalidArgument(std::string("explain: phase '") +
                                   obs::PhaseName(e.phase) + "' outside the " +
                                   ep.sim + " phase set");
  }
  if (e.step >= ep.steps || e.src < 0 ||
      static_cast<uint32_t>(e.src) >= ep.workers) {
    return Status::InvalidArgument("explain: record outside the epoch shape");
  }
  return Status::Ok();
}

// Attribution of one "serve" epoch: no straggler chain — every batch's
// spans decompose directly into queueing / compute / communication, and
// each (step, stage)'s communication splits into congestion (the gap
// between the slowest actual and slowest uncontended flow completion,
// capped by the span's comm share) and the uncontended remainder.
Status ExplainServeEpoch(const obs::EpochEvents& ep, EpochExplain* ee) {
  const std::vector<Phase>& phases = StepPhases(ep.sim);
  const size_t cells = static_cast<size_t>(ep.steps) * kNumPhases;
  std::vector<double> comm_of(cells, 0);
  std::vector<double> flow_t1(cells, 0);
  std::vector<double> flow_t1f(cells, 0);
  std::vector<uint8_t> has_flow(cells, 0);
  for (const Event& e : ep.events) {
    if (e.kind != Event::Kind::kSpan && e.kind != Event::Kind::kFlow) {
      continue;
    }
    GNNPART_RETURN_NOT_OK(CheckRecord(e, ep, phases));
    const size_t i = static_cast<size_t>(e.step) * kNumPhases +
                     static_cast<size_t>(e.phase);
    if (e.kind == Event::Kind::kSpan) {
      if (e.phase == Phase::kQueue) {
        ee->queue_seconds += e.dur;
      } else {
        ee->compute_seconds += e.dur - e.comm;
        comm_of[i] += e.comm;
      }
    } else if (!has_flow[i]) {
      has_flow[i] = 1;
      flow_t1[i] = e.t1;
      flow_t1f[i] = e.t1_free;
    } else {
      flow_t1[i] = std::max(flow_t1[i], e.t1);
      flow_t1f[i] = std::max(flow_t1f[i], e.t1_free);
    }
  }
  for (size_t i = 0; i < cells; ++i) {
    const double comm = comm_of[i];
    double g = 0;
    if (has_flow[i]) g = std::max(0.0, flow_t1[i] - flow_t1f[i]);
    if (g > comm) g = comm;
    ee->congestion_seconds += g;
    ee->uncontended_comm_seconds += comm - g;
  }
  ee->epoch_seconds =
      (ee->compute_seconds +
       (ee->queue_seconds + ee->uncontended_comm_seconds)) +
      ee->congestion_seconds;
  return Status::Ok();
}

}  // namespace

double SolveWait(double total, double compute, double congestion,
                 double migration) {
  const auto sum = [&](double w) {
    return ((compute + w) + congestion) + migration;
  };
  double w = ((total - compute) - congestion) - migration;
  double best = w;
  double best_err = std::fabs(sum(w) - total);
  for (int i = 0; i < 64 && best_err > 0; ++i) {
    const double s = sum(w);
    double next = w + (total - s);
    if (next == w) {
      next = std::nextafter(w, total > s ? HUGE_VAL : -HUGE_VAL);
    }
    w = next;
    const double err = std::fabs(sum(w) - total);
    if (err < best_err) {
      best = w;
      best_err = err;
    } else if (i > 8) {
      // Oscillating around a rounding gap of the sum chain: the target is
      // not representable as this association. Keep the nearest hit.
      break;
    }
  }
  return best;
}

Result<ExplainReport> ComputeExplain(const obs::EventLog& log) {
  ExplainReport rep;

  // Cross-epoch accumulators, all folded in canonical (epoch, record)
  // order so the attribution is bit-identical however the log was
  // produced or loaded.
  double compute = 0;
  double congestion = 0;
  double uncontended = 0;
  double queue = 0;
  std::vector<StragglerStat> workers;

  for (const obs::EpochEvents& ep : log.epochs()) {
    if (ep.sim == "serve") {
      EpochExplain ee;
      ee.sim = ep.sim;
      GNNPART_RETURN_NOT_OK(ExplainServeEpoch(ep, &ee));
      compute += ee.compute_seconds;
      congestion += ee.congestion_seconds;
      uncontended += ee.uncontended_comm_seconds;
      queue += ee.queue_seconds;
      rep.epochs.push_back(std::move(ee));
      // Serving has no straggler chain; the link aggregation below still
      // sees this epoch's flows and samples.
      continue;
    }
    const std::vector<Phase>& phases = StepPhases(ep.sim);
    if (phases.empty()) {
      return Status::InvalidArgument("explain: unknown simulator '" + ep.sim +
                                     "'");
    }

    EpochExplain ee;
    ee.sim = ep.sim;
    ee.epoch_seconds = ep.sim == "distdgl"
                           ? ReconstructDistDglReport(ep).epoch
                           : ReconstructDistGnnReport(ep).epoch;

    // Dense (step, phase, worker) lookups: the straggler's comm share and
    // the extremes of its flows (slowest actual vs slowest uncontended
    // completion).
    const size_t cells = static_cast<size_t>(ep.steps) * kNumPhases *
                         static_cast<size_t>(ep.workers);
    std::vector<double> comm_of(cells, 0);
    std::vector<double> flow_t1(cells, 0);
    std::vector<double> flow_t1f(cells, 0);
    std::vector<uint8_t> has_flow(cells, 0);
    auto cell = [&](uint32_t step, Phase phase, uint32_t worker) {
      return (static_cast<size_t>(step) * kNumPhases +
              static_cast<size_t>(phase)) *
                 ep.workers +
             worker;
    };
    for (const Event& e : ep.events) {
      if (e.kind != Event::Kind::kSpan && e.kind != Event::Kind::kFlow) {
        continue;
      }
      GNNPART_RETURN_NOT_OK(CheckRecord(e, ep, phases));
      if (e.kind == Event::Kind::kSpan && e.dur < 0) {
        return Status::InvalidArgument("explain: span with negative duration");
      }
      const size_t i = cell(e.step, e.phase, static_cast<uint32_t>(e.src));
      if (e.kind == Event::Kind::kSpan) {
        comm_of[i] = e.comm;
      } else if (!has_flow[i]) {
        has_flow[i] = 1;
        flow_t1[i] = e.t1;
        flow_t1f[i] = e.t1_free;
      } else {
        flow_t1[i] = std::max(flow_t1[i], e.t1);
        flow_t1f[i] = std::max(flow_t1f[i], e.t1_free);
      }
    }

    // Decompose each barrier along the straggler chain (the epoch's
    // critical path): compute, congestion, uncontended comm.
    for (const StepPhaseStat& st : ComputeStepPhaseStats(ep)) {
      const size_t i = cell(st.step, st.phase, st.straggler);
      const double comm = comm_of[i];
      double g = 0;
      if (has_flow[i]) g = std::max(0.0, flow_t1[i] - flow_t1f[i]);
      if (g > comm) g = comm;
      ee.compute_seconds += st.max_seconds - comm;
      ee.congestion_seconds += g;
      ee.uncontended_comm_seconds += comm - g;
    }
    compute += ee.compute_seconds;
    congestion += ee.congestion_seconds;
    uncontended += ee.uncontended_comm_seconds;

    const std::vector<WorkerBlame> wb = ComputeWorkerBlame(ep);
    const net::OverlapReport overlap = net::ComputeOverlap(ep);
    if (workers.size() < ep.workers) workers.resize(ep.workers);
    for (size_t w = 0; w < ep.workers; ++w) {
      StragglerStat& s = workers[w];
      for (size_t p = 0; p < s.phase_blame_seconds.size(); ++p) {
        s.phase_blame_seconds[p] += wb[w].blame_seconds[p];
      }
      s.blame_seconds += wb[w].total_blame();
      s.steps_blamed += wb[w].total_steps_blamed();
      s.wait_seconds += wb[w].total_wait();
      s.busy_seconds += wb[w].busy_seconds;
      s.pipelined_blame_seconds += overlap.worker_pipelined_blame[w];
      s.comm_seconds += overlap.worker_comm_seconds[w];
      s.compute_seconds += overlap.worker_compute_seconds[w];
    }
    rep.bsp_seconds += overlap.bsp_epoch_seconds;
    rep.pipelined_seconds += overlap.pipelined_epoch_seconds;
    rep.hidden_seconds += overlap.hidden_seconds;
    rep.epochs.push_back(std::move(ee));
  }

  double epoch_total = 0;
  for (const EpochExplain& ee : rep.epochs) epoch_total += ee.epoch_seconds;
  double migration = 0;
  for (const obs::RunEvent& re : log.run_events()) {
    if (re.kind == obs::RunEvent::Kind::kMigration) migration += re.t1 - re.t0;
  }
  const double total = epoch_total + migration;
  const double wait = SolveWait(total, compute, congestion, migration);
  // The reported total IS the component sum, so the identity
  // total == ((compute + wait) + congestion) + migration holds bitwise by
  // construction. SolveWait lands exactly on `total` whenever that value is
  // representable as this association (always observed for single-epoch
  // runs); when several epochs plus migration put it in a rounding gap the
  // reported total is the nearest achievable sum, a few ulps away.
  const double reported = ((compute + wait) + congestion) + migration;
  if (std::fabs(reported - total) >
      4.0 * std::numeric_limits<double>::epsilon() *
          std::max(1.0, std::fabs(total))) {
    return Status::Internal("explain: component sum failed to converge");
  }
  rep.total_seconds = reported;
  rep.compute_seconds = compute;
  rep.wait_seconds = wait;
  rep.congestion_seconds = congestion;
  rep.migration_seconds = migration;
  rep.uncontended_comm_seconds = uncontended;
  rep.queue_seconds = queue;

  // Per-link contention: bytes and talkers from the flows, time profile
  // from the utilization samples, idle time at zero utilization.
  struct LinkAgg {
    double bytes = 0;
    double busy = 0;
    double contended = 0;
    double peak = 0;
    std::vector<std::pair<double, double>> segments;  // (util, seconds)
    std::map<std::pair<int, int>, double> talkers;
  };
  std::vector<LinkAgg> aggs(log.links().size());
  for (const obs::EpochEvents& ep : log.epochs()) {
    for (const obs::Event& e : ep.events) {
      if (e.kind == obs::Event::Kind::kFlow) {
        for (int l : e.links) {
          if (l < 0 || static_cast<size_t>(l) >= aggs.size()) {
            return Status::InvalidArgument("explain: flow names unknown link");
          }
          aggs[static_cast<size_t>(l)].bytes += e.bytes;
          aggs[static_cast<size_t>(l)].talkers[{e.src, e.dst}] += e.bytes;
        }
      } else if (e.kind == obs::Event::Kind::kSample) {
        if (e.link < 0 || static_cast<size_t>(e.link) >= aggs.size()) {
          return Status::InvalidArgument("explain: sample names unknown link");
        }
        LinkAgg& a = aggs[static_cast<size_t>(e.link)];
        const double seconds = e.t1 - e.t0;
        const double capacity = log.links()[static_cast<size_t>(e.link)].capacity;
        const double util = capacity > 0 ? e.rate / capacity : 0;
        a.busy += seconds;
        if (e.flows >= 2) a.contended += seconds;
        a.peak = std::max(a.peak, util);
        a.segments.emplace_back(util, seconds);
      }
    }
  }
  for (size_t l = 0; l < aggs.size(); ++l) {
    LinkAgg& a = aggs[l];
    if (a.bytes <= 0 && a.busy <= 0) continue;
    LinkContention lc;
    lc.link = static_cast<int>(l);
    lc.name = log.links()[l].name;
    lc.capacity = log.links()[l].capacity;
    lc.bytes = a.bytes;
    lc.busy_seconds = a.busy;
    lc.contended_seconds = a.contended;
    lc.peak_utilization = a.peak;
    // Time-weighted p99 over the observation window; idle time (the run
    // total minus the link's busy time) counts at zero utilization.
    const double idle = std::max(0.0, total - a.busy);
    if (idle > 0) a.segments.emplace_back(0.0, idle);
    std::sort(a.segments.begin(), a.segments.end());
    double window = 0;
    for (const auto& seg : a.segments) window += seg.second;
    if (window > 0) {
      lc.utilization = a.busy / window;
      const double threshold = 0.99 * window;
      double cum = 0;
      for (const auto& seg : a.segments) {
        cum += seg.second;
        if (cum >= threshold) {
          lc.p99_utilization = seg.first;
          break;
        }
      }
    }
    lc.talkers.reserve(a.talkers.size());
    for (const auto& [pair, bytes] : a.talkers) {
      lc.talkers.push_back({pair.first, pair.second, bytes});
    }
    std::sort(lc.talkers.begin(), lc.talkers.end(),
              [](const LinkContention::Talker& x,
                 const LinkContention::Talker& y) {
                if (x.bytes != y.bytes) return x.bytes > y.bytes;
                if (x.src != y.src) return x.src < y.src;
                return x.dst < y.dst;
              });
    rep.links.push_back(std::move(lc));
  }
  std::sort(rep.links.begin(), rep.links.end(),
            [](const LinkContention& x, const LinkContention& y) {
              if (x.contended_seconds != y.contended_seconds) {
                return x.contended_seconds > y.contended_seconds;
              }
              if (x.peak_utilization != y.peak_utilization) {
                return x.peak_utilization > y.peak_utilization;
              }
              return x.link < y.link;
            });

  for (size_t w = 0; w < workers.size(); ++w) {
    workers[w].worker = static_cast<int>(w);
  }
  rep.stragglers = std::move(workers);
  std::sort(rep.stragglers.begin(), rep.stragglers.end(),
            [](const StragglerStat& x, const StragglerStat& y) {
              if (x.blame_seconds != y.blame_seconds) {
                return x.blame_seconds > y.blame_seconds;
              }
              return x.worker < y.worker;
            });
  return rep;
}

}  // namespace trace
}  // namespace gnnpart
