#include "serve/serve.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <utility>

#include "check/check.h"
#include "check/validators.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "gnn/costs.h"
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

/// Forward-pass seconds of one sampled mini batch — the same per-layer
/// walk over the shrinking computation graph as the DistDGL simulator,
/// minus training's backward/update terms (inference stops at the logits).
double ForwardSeconds(const MiniBatchProfile& mb, const GnnConfig& config,
                      const ClusterSpec& cluster) {
  double forward = 0;
  for (int l = 0; l < config.num_layers; ++l) {
    const size_t hop = static_cast<size_t>(config.num_layers - 1 - l);
    const double edges =
        hop < mb.hop_edges.size() ? static_cast<double>(mb.hop_edges[hop]) : 0;
    double vertices = 0;
    for (size_t j = 0; j <= hop && j < mb.frontier_sizes.size(); ++j) {
      vertices += static_cast<double>(mb.frontier_sizes[j]);
    }
    const LayerCost cost = ComputeLayerCost(config, l, vertices, edges);
    forward += cost.aggregation_flops / cluster.aggregation_flops_per_second +
               cost.dense_flops / cluster.flops_per_second;
  }
  return forward;
}

/// Replays one DistDGL training epoch's communication onto the shared
/// fabric as weight-1.0 bulk flows, cycling steps back-to-back at their
/// uncontended (full-bisection closed-form) barrier times until the
/// serving window is covered. Returns the number of steps replayed.
/// `offered` accrues per-host offered bytes for flow conservation.
uint64_t AppendCotenantFlows(const DistDglEpochProfile& profile,
                             const ServeConfig& config,
                             const net::Fabric& fabric,
                             std::vector<net::Flow>* flows,
                             std::vector<double>* offered) {
  const PartitionId k = profile.workers;
  const ClusterSpec& cluster = config.cluster;
  const double bw = cluster.network_bandwidth;
  const double lat = cluster.network_latency;
  const double feat_bytes =
      static_cast<double>(config.gnn.feature_size) * sizeof(float);
  const double params = ModelParameterBytes(config.gnn);
  const double update = params / sizeof(float) / cluster.flops_per_second;
  const int layers = config.gnn.num_layers;

  uint64_t steps = 0;
  double t = 0;
  while (t < config.workload.duration && profile.steps > 0) {
    const size_t step = static_cast<size_t>(steps) % profile.steps;
    // Per-phase specs, priced with the DistDGL simulator's formulas; the
    // BSP barriers between phases use the legacy closed form so the
    // replay schedule itself never depends on serving traffic.
    double barrier_sampling = 0, barrier_feature = 0, barrier_forward = 0,
           barrier_backward = 0;
    for (PartitionId w = 0; w < k; ++w) {
      const MiniBatchProfile& mb = profile.profiles[step][w];
      const double samp_start = static_cast<double>(mb.computation_edges) /
                                cluster.sampling_edges_per_second;
      const double samp_bytes =
          static_cast<double>(mb.remote_sampling_requests) *
          cluster.rpc_bytes_per_remote_vertex;
      const double samp_rounds =
          std::min(static_cast<double>(layers) * (k - 1),
                   static_cast<double>(mb.remote_sampling_requests));
      const double feat_start = static_cast<double>(mb.local_input_vertices) *
                                feat_bytes / cluster.memory_bandwidth;
      const double fetch_bytes =
          static_cast<double>(mb.remote_input_vertices) * feat_bytes;
      const double feat_rounds =
          std::min(static_cast<double>(k - 1),
                   static_cast<double>(mb.remote_input_vertices));
      const double forward = ForwardSeconds(mb, config.gnn, cluster);

      net::AppendHostFlows(fabric, static_cast<int>(w), t + samp_start,
                           samp_bytes, samp_rounds, /*weight=*/1.0, flows);
      (*offered)[w] += samp_bytes;
      barrier_sampling = std::max(
          barrier_sampling, (samp_start + samp_bytes / bw) + samp_rounds * lat);
      barrier_feature = std::max(
          barrier_feature, (feat_start + fetch_bytes / bw) + feat_rounds * lat);
      barrier_forward = std::max(barrier_forward, forward);
      barrier_backward = std::max(
          barrier_backward, (2.0 * forward + 2.0 * params / bw) + 2.0 * lat);
    }
    const double t_feature = t + barrier_sampling;
    for (PartitionId w = 0; w < k; ++w) {
      const MiniBatchProfile& mb = profile.profiles[step][w];
      const double feat_start = static_cast<double>(mb.local_input_vertices) *
                                feat_bytes / cluster.memory_bandwidth;
      const double fetch_bytes =
          static_cast<double>(mb.remote_input_vertices) * feat_bytes;
      net::AppendHostFlows(fabric, static_cast<int>(w), t_feature + feat_start,
                           fetch_bytes, /*rounds=*/
                           std::min(static_cast<double>(k - 1),
                                    static_cast<double>(mb.remote_input_vertices)),
                           /*weight=*/1.0, flows);
      (*offered)[w] += fetch_bytes;
    }
    const double t_backward = t_feature + barrier_feature + barrier_forward;
    for (PartitionId w = 0; w < k; ++w) {
      const double forward =
          ForwardSeconds(profile.profiles[step][w], config.gnn, cluster);
      net::AppendHostFlows(fabric, static_cast<int>(w),
                           t_backward + 2.0 * forward, 2.0 * params,
                           /*rounds=*/2.0, /*weight=*/1.0, flows);
      (*offered)[w] += 2.0 * params;
    }
    t = t_backward + barrier_backward + update;
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
  const ClusterSpec& cluster = config.cluster;
  const double bw = cluster.network_bandwidth;
  const double lat = cluster.network_latency;
  const double feat_bytes =
      static_cast<double>(config.gnn.feature_size) * sizeof(float);
  const int layers = config.gnn.num_layers;

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
  // own RNG stream off the batch id), so they sample concurrently with a
  // sampler free list, same as the DistDGL epoch profiler.
  const Rng sample_base(config.seed);
  std::vector<MiniBatchProfile> profiles(batches.size());
  std::mutex sampler_mu;
  std::vector<std::unique_ptr<NeighborSampler>> free_samplers;
  ParallelFor(batches.size(), 1, [&](size_t begin, size_t end, size_t) {
    std::unique_ptr<NeighborSampler> sampler;
    {
      std::lock_guard<std::mutex> lk(sampler_mu);
      if (!free_samplers.empty()) {
        sampler = std::move(free_samplers.back());
        free_samplers.pop_back();
      }
    }
    static const obs::Counter reused = obs::GetCounter(
        "serve/sampler_reuse", "samplers", /*deterministic=*/false);
    static const obs::Counter allocated = obs::GetCounter(
        "serve/sampler_alloc", "samplers", /*deterministic=*/false);
    if (!sampler) {
      sampler = std::make_unique<NeighborSampler>(graph);
      allocated.Inc();
    } else {
      reused.Inc();
    }
    std::vector<VertexId> seeds;
    for (size_t b = begin; b < end; ++b) {
      seeds.clear();
      for (uint32_t m : batches[b].members) seeds.push_back(requests[m].ego);
      Rng rng = sample_base.Fork(batches[b].id);
      profiles[b] = sampler->SampleBatch(seeds, config.gnn.fanouts, &owners,
                                         batches[b].part, &rng);
    }
    std::lock_guard<std::mutex> lk(sampler_mu);
    free_samplers.push_back(std::move(sampler));
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
    const MiniBatchProfile& mb = profiles[b];
    BatchOutcome& out = outcomes[b];
    out.sampling_compute = static_cast<double>(mb.computation_edges) /
                           cluster.sampling_edges_per_second;
    out.sampling_bytes = static_cast<double>(mb.remote_sampling_requests) *
                         cluster.rpc_bytes_per_remote_vertex;
    const double samp_rounds =
        std::min(static_cast<double>(layers) * (k - 1),
                 static_cast<double>(mb.remote_sampling_requests));
    out.gather_compute = static_cast<double>(mb.local_input_vertices) *
                         feat_bytes / cluster.memory_bandwidth;
    out.feature_bytes =
        static_cast<double>(mb.remote_input_vertices) * feat_bytes;
    const double feat_rounds =
        std::min(static_cast<double>(k - 1),
                 static_cast<double>(mb.remote_input_vertices));
    out.forward_compute = ForwardSeconds(mb, config.gnn, cluster);

    out.sampling_flow_start = batches[b].dispatch + out.sampling_compute;
    out.sampling_uncontended_end =
        (out.sampling_flow_start + out.sampling_bytes / bw) +
        samp_rounds * lat;
    out.feature_flow_start = out.sampling_uncontended_end + out.gather_compute;
    out.feature_uncontended_end =
        (out.feature_flow_start + out.feature_bytes / bw) + feat_rounds * lat;

    const int host = static_cast<int>(batches[b].part);
    samp_range[b].first = flows.size();
    net::AppendHostFlows(fabric, host, out.sampling_flow_start,
                         out.sampling_bytes, samp_rounds, config.serve_weight,
                         &flows);
    samp_range[b].second = flows.size();
    feat_range[b].first = flows.size();
    net::AppendHostFlows(fabric, host, out.feature_flow_start,
                         out.feature_bytes, feat_rounds, config.serve_weight,
                         &flows);
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
