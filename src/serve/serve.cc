#include "serve/serve.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "check/check.h"
#include "check/validators.h"
#include "common/rng.h"
#include "graph/split.h"
#include "net/flowsim.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "sampling/neighbor_sampler.h"
#include "sim/distdgl_sim.h"

namespace gnnpart {
namespace serve {
namespace {

/// Exact quantile of an ascending-sorted latency vector: the smallest
/// element with at least ceil(q * n) values at or below it.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Replays one DistDGL training epoch's communication onto the shared
/// fabric as weight-1.0 bulk flows, cycling steps back-to-back at their
/// uncontended (closed-form) barrier times until the serving window is
/// covered. Returns the number of steps replayed. `offered` accrues
/// per-host offered bytes for flow conservation.
uint64_t AppendCotenantFlows(const DistDglEpochProfile& profile,
                             const ServeConfig& config,
                             const net::Fabric& fabric,
                             std::vector<net::Flow>* flows,
                             std::vector<double>* offered) {
  const PartitionId k = profile.workers;
  std::vector<MiniBatchCost> costs(k);
  auto append = [&](PartitionId w, double t, const CommCost& comm) {
    net::AppendHostFlows(fabric, static_cast<int>(w), t + comm.start,
                         comm.bytes, comm.rounds, /*weight=*/1.0, flows);
    (*offered)[w] += comm.bytes;
  };
  auto finish = [&](const CommCost& comm) {
    return net::UncontendedFinish(fabric, comm.start, comm.bytes, comm.rounds);
  };

  uint64_t steps = 0;
  double t = 0;
  while (t < config.workload.duration && profile.steps > 0) {
    const size_t step = static_cast<size_t>(steps) % profile.steps;
    // The BSP barriers between phases use the closed form so the replay
    // schedule itself never depends on serving traffic.
    double barrier_sampling = 0, barrier_feature = 0, barrier_forward = 0,
           barrier_backward = 0;
    for (PartitionId w = 0; w < k; ++w) {
      costs[w] = DistDglMiniBatchCost(profile.profiles[step][w], config.gnn,
                                      config.cluster, k);
      const MiniBatchCost& c = costs[w];
      append(w, t, c.sampling);
      barrier_sampling = std::max(barrier_sampling, finish(c.sampling));
      barrier_feature = std::max(barrier_feature, finish(c.feature));
      barrier_forward = std::max(barrier_forward, c.forward_seconds);
      barrier_backward = std::max(barrier_backward, finish(c.backward));
    }
    const double t_feature = t + barrier_sampling;
    for (PartitionId w = 0; w < k; ++w) append(w, t_feature, costs[w].feature);
    const double t_backward = t_feature + barrier_feature + barrier_forward;
    for (PartitionId w = 0; w < k; ++w) {
      append(w, t_backward, costs[w].backward);
    }
    // The model update is the same for every worker.
    t = t_backward + barrier_backward + costs[0].update_seconds;
    ++steps;
  }
  return steps;
}

}  // namespace

Result<ServeReport> RunServe(const Graph& graph,
                             const VertexPartitioning& owners,
                             const ServeConfig& config, obs::EventLog* events) {
  if (owners.k == 0 || owners.assignment.size() != graph.num_vertices()) {
    return Status::InvalidArgument(
        "serve: ownership map does not cover the graph");
  }
  if (!(config.workload.arrival_rate > 0) || !(config.workload.duration > 0)) {
    return Status::InvalidArgument(
        "serve: arrival rate and duration must be positive");
  }
  if (!std::isfinite(config.workload.arrival_rate) ||
      !std::isfinite(config.workload.duration)) {
    return Status::InvalidArgument(
        "serve: arrival rate and duration must be finite");
  }
  // Batches hold uint32_t request indices (ServeBatch::members), so the
  // expected request count must stay below 2^32.
  if (config.workload.arrival_rate * config.workload.duration >= 0x1p32) {
    return Status::InvalidArgument(
        "serve: arrival rate x duration must stay below 2^32 requests");
  }
  if (config.batch.max_batch < 1 || !(config.batch.max_wait >= 0)) {
    return Status::InvalidArgument(
        "serve: batch size must be >= 1 and batch wait >= 0");
  }
  if (!(config.serve_weight > 0) || !std::isfinite(config.serve_weight)) {
    return Status::InvalidArgument("serve: serve weight must be positive");
  }
  if (config.gnn.fanouts.empty()) {
    return Status::InvalidArgument("serve: fan-outs must not be empty");
  }
  const PartitionId k = owners.k;

  // --- Workload + batching (deterministic by construction, then verified).
  const std::vector<ServeRequest> requests =
      GenerateRequests(config.workload, owners);
  GNNPART_RETURN_NOT_OK(
      check::ValidateServeRequests(requests, config.workload, owners));
  const std::vector<ServeBatch> batches =
      BatchRequests(requests, k, config.batch);
  GNNPART_RETURN_NOT_OK(
      check::ValidateServeBatches(requests, batches, k, config.batch));

  // --- Ego-graph sampling: one mini batch per dispatched batch, via the
  // real layered sampler. Batches are independent cells (each forks its
  // own RNG stream off the batch id), so they sample concurrently, as the
  // DistDGL epoch profiler does.
  const Rng sample_base(config.seed);
  std::vector<MiniBatchProfile> profiles(batches.size());
  ParallelSample(graph, batches.size(), "serve",
                 [&](const NeighborSampler& sampler, size_t begin, size_t end) {
    std::vector<VertexId> seeds;
    for (size_t b = begin; b < end; ++b) {
      seeds.clear();
      for (uint32_t m : batches[b].members) seeds.push_back(requests[m].ego);
      Rng rng = sample_base.Fork(batches[b].id);
      profiles[b] = sampler.SampleBatch(seeds, config.gnn.fanouts, &owners,
                                        batches[b].part, &rng);
    }
  });

  // --- Pricing: pin every batch's flows to its uncontended timetable
  // (dispatch + closed-form stage offsets; see serve.h on why this keeps
  // the co-tenanted run one global flow simulation).
  const net::Fabric fabric(config.network, static_cast<int>(k));
  std::vector<net::Flow> flows;
  std::vector<double> offered(k, 0.0);
  std::vector<BatchOutcome> outcomes(batches.size());
  std::vector<std::pair<size_t, size_t>> samp_range(batches.size());
  std::vector<std::pair<size_t, size_t>> feat_range(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    const MiniBatchCost cost =
        DistDglMiniBatchCost(profiles[b], config.gnn, config.cluster, k);
    BatchOutcome& out = outcomes[b];
    out.sampling_compute = cost.sampling.start;
    out.sampling_bytes = cost.sampling.bytes;
    out.gather_compute = cost.feature.start;
    out.feature_bytes = cost.feature.bytes;
    out.forward_compute = cost.forward_seconds;

    out.sampling_flow_start = batches[b].dispatch + out.sampling_compute;
    out.sampling_uncontended_end =
        net::UncontendedFinish(fabric, out.sampling_flow_start,
                               out.sampling_bytes, cost.sampling.rounds);
    out.feature_flow_start = out.sampling_uncontended_end + out.gather_compute;
    out.feature_uncontended_end =
        net::UncontendedFinish(fabric, out.feature_flow_start,
                               out.feature_bytes, cost.feature.rounds);

    const int host = static_cast<int>(batches[b].part);
    samp_range[b].first = flows.size();
    net::AppendHostFlows(fabric, host, out.sampling_flow_start,
                         out.sampling_bytes, cost.sampling.rounds,
                         config.serve_weight, &flows);
    samp_range[b].second = flows.size();
    feat_range[b].first = flows.size();
    net::AppendHostFlows(fabric, host, out.feature_flow_start,
                         out.feature_bytes, cost.feature.rounds,
                         config.serve_weight, &flows);
    feat_range[b].second = flows.size();
    offered[batches[b].part] += out.sampling_bytes + out.feature_bytes;
  }

  // --- Co-tenant training traffic on the same fabric, at weight 1.0.
  ServeReport report;
  if (config.cotenant) {
    const VertexSplit split = VertexSplit::MakeRandom(
        graph.num_vertices(), config.train_fraction,
        config.validation_fraction, config.seed ^ 0xC07E);
    Result<DistDglEpochProfile> cotenant = ProfileDistDglEpoch(
        graph, owners, split, config.gnn.fanouts,
        config.gnn.global_batch_size, config.seed ^ 0xC07E);
    if (!cotenant.ok()) return cotenant.status();
    report.cotenant_steps = AppendCotenantFlows(cotenant.value(), config,
                                                fabric, &flows, &offered);
  }

  // --- One global weighted flow simulation over the whole window. The
  // per-flow details and link samples feed only the event timeline, so
  // without one the engine skips recording them.
  net::LinkUsage usage;
  net::PhaseLog log;
  const std::vector<double> finish = net::SimulateFlows(
      fabric, flows, &usage, events != nullptr ? &log : nullptr);
  usage.EnsureShape(fabric);
  for (PartitionId w = 0; w < k; ++w) {
    usage.host_offered_bytes[w] += offered[w];
  }
  GNNPART_RETURN_NOT_OK(check::ValidateFlowConservation(fabric, usage));

  // --- Batch completions: a stage ends at the max of its actual flow
  // finishes and of its predecessor's lateness-shifted closed form.
  report.latencies.assign(requests.size(), 0.0);
  for (size_t b = 0; b < batches.size(); ++b) {
    BatchOutcome& out = outcomes[b];
    out.sampling_end = out.sampling_uncontended_end;
    for (size_t i = samp_range[b].first; i < samp_range[b].second; ++i) {
      out.sampling_end = std::max(out.sampling_end, finish[i]);
    }
    const double feat_comm = out.feature_uncontended_end - out.feature_flow_start;
    out.pre_forward_end = out.sampling_end + out.gather_compute + feat_comm;
    for (size_t i = feat_range[b].first; i < feat_range[b].second; ++i) {
      out.pre_forward_end = std::max(out.pre_forward_end, finish[i]);
    }
    out.completion = out.pre_forward_end + out.forward_compute;
    for (uint32_t m : batches[b].members) {
      report.latencies[requests[m].id] =
          out.completion - requests[m].arrival;
      report.queue_seconds += batches[b].dispatch - requests[m].arrival;
    }
    report.compute_seconds +=
        out.sampling_compute + out.gather_compute + out.forward_compute;
    report.network_seconds +=
        (out.sampling_uncontended_end - out.sampling_flow_start) + feat_comm;
    const double s_late = out.sampling_end - out.sampling_uncontended_end;
    const double f_late =
        out.pre_forward_end - (out.sampling_end + out.gather_compute + feat_comm);
    report.congestion_seconds += std::max(s_late, 0.0) + std::max(f_late, 0.0);
    report.network_bytes += out.sampling_bytes + out.feature_bytes;
  }

  report.requests = requests.size();
  report.batches = batches.size();
  report.mean_batch_size =
      batches.empty() ? 0
                      : static_cast<double>(requests.size()) /
                            static_cast<double>(batches.size());
  std::vector<double> sorted = report.latencies;
  std::sort(sorted.begin(), sorted.end());
  report.latency.p50 = SortedQuantile(sorted, 0.50);
  report.latency.p95 = SortedQuantile(sorted, 0.95);
  report.latency.p99 = SortedQuantile(sorted, 0.99);
  report.latency.max = sorted.empty() ? 0 : sorted.back();
  double sum = 0;
  for (double v : sorted) sum += v;
  report.latency.mean =
      sorted.empty() ? 0 : sum / static_cast<double>(sorted.size());
  report.outcomes = outcomes;
  GNNPART_RETURN_NOT_OK(
      check::ValidateServeReport(requests, batches, report));

  // --- Metrics: deterministic counters + the integral-microsecond latency
  // histogram (simulated time, so det:true rows gate exactly in CI).
  if (!config.metrics_prefix.empty()) {
    obs::Count(config.metrics_prefix + "/requests", report.requests,
               "requests");
    obs::Count(config.metrics_prefix + "/batches", report.batches, "batches");
    obs::Count(config.metrics_prefix + "/network_bytes",
               static_cast<uint64_t>(report.network_bytes), "bytes");
    obs::Count(config.metrics_prefix + "/cotenant_steps",
               report.cotenant_steps, "steps");
    const obs::Histogram latency_us = obs::GetHistogram(
        config.metrics_prefix + "/latency_us", "us", obs::Pow2Buckets(32));
    for (double v : report.latencies) {
      latency_us.Observe(static_cast<uint64_t>(v * 1e6));
    }
  }

  // --- Event timeline: one "serve" epoch, step = batch. Serial emission
  // in batch order; the flow records carry the engine's uncontended
  // completions (clamped to the actual finish so weighted rounding can
  // never place t1f past t1).
  if (events != nullptr && !batches.empty()) {
    std::vector<obs::EventLink> elinks;
    elinks.reserve(fabric.links().size());
    for (const net::Link& l : fabric.links()) {
      elinks.push_back({l.name, l.capacity});
    }
    events->DeclareLinks(elinks);
    events->BeginEpoch("serve", static_cast<uint32_t>(batches.size()),
                       static_cast<uint32_t>(k), 1);
    for (size_t b = 0; b < batches.size(); ++b) {
      const BatchOutcome& out = outcomes[b];
      const uint32_t step = static_cast<uint32_t>(b);
      const int worker = static_cast<int>(batches[b].part);
      for (uint32_t m : batches[b].members) {
        events->AddSpan(step, worker, obs::Phase::kQueue, requests[m].arrival,
                        batches[b].dispatch - requests[m].arrival, 0.0, 0.0);
      }
      events->AddSpan(step, worker, obs::Phase::kSampling, batches[b].dispatch,
                      out.sampling_end - batches[b].dispatch,
                      out.sampling_end - out.sampling_flow_start,
                      out.sampling_bytes);
      const double feat_dur = out.pre_forward_end - out.sampling_end;
      const double feat_comm = std::min(
          std::max(feat_dur - out.gather_compute, 0.0), feat_dur);
      events->AddSpan(step, worker, obs::Phase::kFeature, out.sampling_end,
                      feat_dur, feat_comm, out.feature_bytes);
      events->AddSpan(step, worker, obs::Phase::kForward, out.pre_forward_end,
                      out.forward_compute, 0.0, 0.0);
      auto emit_flows = [&](obs::Phase phase,
                            const std::pair<size_t, size_t>& range) {
        for (size_t i = range.first; i < range.second; ++i) {
          const net::FlowDetail& fd = log.flows[i];
          events->AddFlow(step, phase, fd.host, fd.dst, fd.start, fd.finish,
                          std::min(fd.uncontended_finish, fd.finish),
                          fd.bytes, fd.links);
        }
      };
      emit_flows(obs::Phase::kSampling, samp_range[b]);
      emit_flows(obs::Phase::kFeature, feat_range[b]);
    }
    for (const net::LinkSample& s : log.samples) {
      events->AddSample(s.link, s.t_begin, s.t_end, s.rate, s.flows);
    }
  }
  return report;
}

}  // namespace serve
}  // namespace gnnpart
