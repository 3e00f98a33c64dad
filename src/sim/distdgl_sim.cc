#include "sim/distdgl_sim.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "check/check.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "net/flowsim.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "gnn/costs.h"

namespace gnnpart {

/// Steps per ParallelReduce chunk of SimulateDistDglEpoch. The event log's
/// epoch header records it, so ReconstructDistDglReport sums the step
/// maxima in the same chunks, bit-exactly.
constexpr size_t kStepGrain = 8;

uint64_t DistDglEpochProfile::TotalRemoteInputVertices() const {
  uint64_t total = 0;
  for (const auto& step : profiles) {
    for (const auto& p : step) total += p.remote_input_vertices;
  }
  return total;
}

uint64_t DistDglEpochProfile::TotalInputVertices() const {
  uint64_t total = 0;
  for (const auto& step : profiles) {
    for (const auto& p : step) total += p.input_vertices;
  }
  return total;
}

uint64_t DistDglEpochProfile::TotalComputationEdges() const {
  uint64_t total = 0;
  for (const auto& step : profiles) {
    for (const auto& p : step) total += p.computation_edges;
  }
  return total;
}

double DistDglEpochProfile::InputVertexBalance() const {
  if (profiles.empty()) return 0;
  double acc = 0;
  for (const auto& step : profiles) {
    std::vector<double> sizes;
    sizes.reserve(step.size());
    for (const auto& p : step) {
      sizes.push_back(static_cast<double>(p.input_vertices));
    }
    acc += MaxOverMean(sizes);
  }
  return acc / static_cast<double>(profiles.size());
}

Result<DistDglEpochPlan> PlanDistDglEpoch(const VertexPartitioning& parts,
                                          const VertexSplit& split,
                                          size_t global_batch_size,
                                          uint64_t seed) {
  if (global_batch_size == 0) {
    return Status::InvalidArgument("global batch size must be > 0");
  }
  const std::vector<VertexId>& train = split.train_vertices();
  if (train.empty()) {
    return Status::FailedPrecondition("no training vertices in the split");
  }
  DistDglEpochPlan plan;
  plan.steps = (train.size() + global_batch_size - 1) / global_batch_size;
  plan.local_batch = std::max<size_t>(1, global_batch_size / parts.k);
  plan.shards.resize(parts.k);
  for (VertexId v : train) {
    if (v >= parts.assignment.size()) {
      return Status::InvalidArgument(
          "partitioning does not cover the training vertices");
    }
    plan.shards[parts.assignment[v]].push_back(v);
  }
  plan.rng = Rng(seed);
  for (auto& shard : plan.shards) plan.rng.Shuffle(&shard);
  // An empty shard shuffles nothing, so filling it afterwards leaves the
  // generator where the shuffle left it.
  for (auto& shard : plan.shards) {
    if (shard.empty()) shard = train;
  }
  return plan;
}

MiniBatchProfile SampleDistDglStep(const DistDglEpochPlan& plan,
                                   const NeighborSampler& sampler,
                                   const VertexPartitioning& parts,
                                   const std::vector<size_t>& fanouts,
                                   size_t step, PartitionId w) {
  const std::vector<VertexId>& shard = plan.shards[w];
  std::vector<VertexId> seeds(plan.local_batch);
  for (size_t i = 0; i < plan.local_batch; ++i) {
    seeds[i] = shard[(step * plan.local_batch + i) % shard.size()];
  }
  Rng rng = plan.rng.Fork((step << 8) ^ w);
  return sampler.SampleBatch(seeds, fanouts, &parts, w, &rng);
}

Result<DistDglEpochProfile> ProfileDistDglEpoch(
    const Graph& graph, const VertexPartitioning& parts,
    const VertexSplit& split, const std::vector<size_t>& fanouts,
    size_t global_batch_size, uint64_t seed) {
  if (parts.assignment.size() != graph.num_vertices()) {
    return Status::InvalidArgument("partitioning does not match the graph");
  }
  Result<DistDglEpochPlan> planned =
      PlanDistDglEpoch(parts, split, global_batch_size, seed);
  if (!planned.ok()) return planned.status();
  const DistDglEpochPlan& plan = planned.value();

  DistDglEpochProfile epoch;
  epoch.workers = parts.k;
  epoch.steps = plan.steps;
  epoch.profiles.resize(epoch.steps);

  // Each (step, worker) cell is independent (SampleDistDglStep), so steps
  // are sampled concurrently. Everything inside a chunk — the per-machine
  // loop and SampleBatch itself, which is serial — runs on the chunk's
  // thread, so with fewer steps than threads the pool is underused; that
  // regime is small by construction (steps ~ |train| / batch).
  ParallelSample(graph, epoch.steps, "sim/distdgl",
                 [&](const NeighborSampler& sampler, size_t begin, size_t end) {
    for (size_t step = begin; step < end; ++step) {
      epoch.profiles[step].reserve(parts.k);
      for (PartitionId w = 0; w < parts.k; ++w) {
        epoch.profiles[step].push_back(
            SampleDistDglStep(plan, sampler, parts, fanouts, step, w));
      }
    }
  });
  obs::Count("sim/distdgl/epochs_profiled", 1, "epochs");
  obs::Count("sim/distdgl/steps_profiled", epoch.steps, "steps");
  return epoch;
}

MiniBatchCost DistDglMiniBatchCost(const MiniBatchProfile& mb,
                                   const GnnConfig& config,
                                   const ClusterSpec& cluster,
                                   PartitionId k) {
  const double feat_bytes = static_cast<double>(config.feature_size) *
                            sizeof(float);
  const double params = ModelParameterBytes(config);
  const int layers = config.num_layers;
  MiniBatchCost cost;

  // --- Mini-batch sampling: local traversal + remote sampling RPCs.
  // DistDGL batches RPCs per (layer, remote machine), so the latency
  // charge is one round trip per remote machine actually contacted —
  // at most layers * (k-1), but zero when the partitioning keeps the
  // expansion local (the regime that makes DI scale so well).
  cost.sampling.start = static_cast<double>(mb.computation_edges) /
                        cluster.sampling_edges_per_second;
  cost.sampling.bytes = static_cast<double>(mb.remote_sampling_requests) *
                        cluster.rpc_bytes_per_remote_vertex;
  cost.sampling.rounds =
      std::min(static_cast<double>(layers) * (k - 1),
               static_cast<double>(mb.remote_sampling_requests));

  // --- Feature loading: remote fetch over the network, local gather
  // from memory. Latency again per remote machine actually holding
  // needed features.
  cost.feature.start = static_cast<double>(mb.local_input_vertices) *
                       feat_bytes / cluster.memory_bandwidth;
  cost.feature.bytes =
      static_cast<double>(mb.remote_input_vertices) * feat_bytes;
  cost.feature.rounds = std::min(static_cast<double>(k - 1),
                                 static_cast<double>(mb.remote_input_vertices));

  // --- Forward: per-layer cost on the shrinking computation graph.
  // Layer l aggregates over the edges sampled at hop (layers-1-l) and
  // transforms the vertices within (layers-1-l) hops of the seeds.
  for (int l = 0; l < layers; ++l) {
    size_t hop = static_cast<size_t>(layers - 1 - l);
    double edges = hop < mb.hop_edges.size()
                       ? static_cast<double>(mb.hop_edges[hop])
                       : 0;
    double vertices = 0;
    for (size_t j = 0; j <= hop && j < mb.frontier_sizes.size(); ++j) {
      vertices += static_cast<double>(mb.frontier_sizes[j]);
    }
    LayerCost layer = ComputeLayerCost(config, l, vertices, edges);
    cost.forward_seconds +=
        layer.aggregation_flops / cluster.aggregation_flops_per_second +
        layer.dense_flops / cluster.flops_per_second;
  }

  // --- Backward: ~2x forward compute + gradient all-reduce; then the
  // model update, the same for every (step, worker).
  cost.backward.start = 2.0 * cost.forward_seconds;
  cost.backward.bytes = 2.0 * params;
  cost.backward.rounds = 2.0;
  cost.update_seconds = params / sizeof(float) / cluster.flops_per_second;
  return cost;
}

DistDglEpochReport SimulateDistDglEpoch(const DistDglEpochProfile& profile,
                                        const GnnConfig& config,
                                        const ClusterSpec& cluster,
                                        const net::Fabric* fabric,
                                        net::LinkUsage* usage,
                                        obs::EventLog* events) {
  DistDglEpochReport report;
  const PartitionId k = profile.workers;
  GNNPART_CHECK_CHEAP(profile.profiles.size() == profile.steps,
                      "epoch profile declares more steps than it holds");

  // All communication is priced by gnnpart::net. Callers that pass no
  // fabric get the legacy one — the cluster's own bandwidth/latency on a
  // full-bisection switch — under which every charge below is bit-exactly
  // the pre-net closed form (see src/net/flowsim.h).
  std::optional<net::Fabric> local_fabric;
  if (fabric == nullptr) {
    local_fabric.emplace(net::NetworkConfig::FromCluster(cluster),
                         static_cast<int>(k));
    fabric = &*local_fabric;
  }
  GNNPART_CHECK_CHEAP(fabric->num_hosts() == static_cast<int>(k),
                      "distdgl: fabric host count != worker count");

  // Per-(step, worker) batch costs, and the event sidecar: per-(step,
  // worker, phase) durations and per-step flow/sample records for the three
  // communication phases (slots: 0 = sampling, 1 = feature, 2 = backward).
  // The parallel cost loop below fills them (each cell written exactly once
  // by its owning chunk, so the arrays are deterministic and race-free); a
  // serial pass at the end replays them onto the BSP timeline. Null log =
  // no sidecar allocated, and the loop only tests one null pointer per
  // (step, worker).
  constexpr size_t kStepPhases = 5;
  constexpr size_t kCommPhases = 3;
  std::vector<MiniBatchCost> costs(profile.steps * static_cast<size_t>(k));
  std::vector<double> span_dur;
  std::vector<std::vector<obs::Event>> phase_logs;
  if (events != nullptr) {
    span_dur.assign(costs.size() * kStepPhases, 0);
    phase_logs.resize(profile.steps * kCommPhases);
  }
  double* const dur_out = events != nullptr ? span_dur.data() : nullptr;
  std::vector<obs::Event>* const logs_out =
      events != nullptr ? phase_logs.data() : nullptr;

  // The per-machine cost loop is independent across steps; step chunks are
  // evaluated concurrently into partial accumulators that are combined in
  // chunk order, so the floating-point sums are identical for every thread
  // count.
  struct StepAcc {
    std::vector<DistDglWorkerStats> workers;
    double sampling = 0, feature = 0, forward = 0, backward = 0, update = 0;
    uint64_t remote_input_vertices = 0;
    net::LinkUsage usage;
  };
  StepAcc init;
  init.workers.resize(k);
  StepAcc total = ParallelReduce<StepAcc>(
      profile.steps, kStepGrain, std::move(init),
      [&](size_t chunk_begin, size_t chunk_end, size_t) {
        StepAcc acc;
        acc.workers.resize(k);
        net::LinkUsage* const chunk_usage =
            usage != nullptr ? &acc.usage : nullptr;
        // Per-step scratch, refilled for every step of the chunk. Each
        // communication phase of a step is one gnnpart::net phase (see
        // flowsim.h for why the uncontended charge is the legacy closed
        // form bit-exactly).
        net::PhaseSpec sampling_spec(k);
        net::PhaseSpec feature_spec(k);
        net::PhaseSpec backward_spec(k);
        for (size_t step = chunk_begin; step < chunk_end; ++step) {
          MiniBatchCost* const step_costs = &costs[step * k];
          for (PartitionId w = 0; w < k; ++w) {
            step_costs[w] = DistDglMiniBatchCost(profile.profiles[step][w],
                                                 config, cluster, k);
            const MiniBatchCost& cost = step_costs[w];
            sampling_spec.start[w] = cost.sampling.start;
            sampling_spec.bytes[w] = cost.sampling.bytes;
            sampling_spec.rounds[w] = cost.sampling.rounds;
            feature_spec.start[w] = cost.feature.start;
            feature_spec.bytes[w] = cost.feature.bytes;
            feature_spec.rounds[w] = cost.feature.rounds;
            backward_spec.start[w] = cost.backward.start;
            backward_spec.bytes[w] = cost.backward.bytes;
            backward_spec.rounds[w] = cost.backward.rounds;
          }

          // Price the step's three communication phases on the fabric.
          std::vector<obs::Event>* const step_logs =
              logs_out != nullptr ? logs_out + step * kCommPhases : nullptr;
          const std::vector<double> sampling_done = net::SimulatePhase(
              *fabric, sampling_spec, chunk_usage,
              step_logs != nullptr ? &step_logs[0] : nullptr);
          const std::vector<double> feature_done = net::SimulatePhase(
              *fabric, feature_spec, chunk_usage,
              step_logs != nullptr ? &step_logs[1] : nullptr);
          const std::vector<double> backward_done = net::SimulatePhase(
              *fabric, backward_spec, chunk_usage,
              step_logs != nullptr ? &step_logs[2] : nullptr);

          double max_sampling = 0, max_feature = 0, max_forward = 0,
                 max_backward = 0, max_update = 0;
          for (PartitionId w = 0; w < k; ++w) {
            const MiniBatchProfile& mb = profile.profiles[step][w];
            const MiniBatchCost& cost = step_costs[w];
            DistDglWorkerStats& ws = acc.workers[w];
            const double sampling = sampling_done[w];
            const double feature = feature_done[w];
            const double forward = cost.forward_seconds;
            const double backward = backward_done[w];
            const double update = cost.update_seconds;

            ws.sampling_seconds += sampling;
            ws.feature_seconds += feature;
            ws.forward_seconds += forward;
            ws.backward_seconds += backward;
            ws.update_seconds += update;
            ws.network_bytes +=
                cost.sampling.bytes + cost.feature.bytes + cost.backward.bytes;

            if (dur_out != nullptr) {
              const size_t base =
                  (step * static_cast<size_t>(k) + w) * kStepPhases;
              dur_out[base + 0] = sampling;
              dur_out[base + 1] = feature;
              dur_out[base + 2] = forward;
              dur_out[base + 3] = backward;
              dur_out[base + 4] = update;
            }

            max_sampling = std::max(max_sampling, sampling);
            max_feature = std::max(max_feature, feature);
            max_forward = std::max(max_forward, forward);
            max_backward = std::max(max_backward, backward);
            max_update = std::max(max_update, update);
            acc.remote_input_vertices += mb.remote_input_vertices;
          }
          acc.sampling += max_sampling;
          acc.feature += max_feature;
          acc.forward += max_forward;
          acc.backward += max_backward;
          acc.update += max_update;
        }
        return acc;
      },
      [k](StepAcc acc, StepAcc part) {
        for (PartitionId w = 0; w < k; ++w) {
          DistDglWorkerStats& a = acc.workers[w];
          const DistDglWorkerStats& b = part.workers[w];
          a.sampling_seconds += b.sampling_seconds;
          a.feature_seconds += b.feature_seconds;
          a.forward_seconds += b.forward_seconds;
          a.backward_seconds += b.backward_seconds;
          a.update_seconds += b.update_seconds;
          a.network_bytes += b.network_bytes;
        }
        acc.sampling += part.sampling;
        acc.feature += part.feature;
        acc.forward += part.forward;
        acc.backward += part.backward;
        acc.update += part.update;
        acc.remote_input_vertices += part.remote_input_vertices;
        // Chunk-order merge keeps the link accounting thread-invariant.
        acc.usage.MergeFrom(part.usage);
        return acc;
      });
  if (usage != nullptr) usage->MergeFrom(total.usage);
  report.workers = std::move(total.workers);
  report.sampling_seconds = total.sampling;
  report.feature_seconds = total.feature;
  report.forward_seconds = total.forward;
  report.backward_seconds = total.backward;
  report.update_seconds = total.update;
  report.remote_input_vertices = total.remote_input_vertices;
  report.epoch_seconds = report.sampling_seconds + report.feature_seconds +
                         report.forward_seconds + report.backward_seconds +
                         report.update_seconds;
  std::vector<double> totals;
  totals.reserve(k);
  for (const DistDglWorkerStats& ws : report.workers) {
    report.total_network_bytes += ws.network_bytes;
    totals.push_back(ws.total_seconds());
  }
  report.time_balance = MaxOverMean(totals);
  obs::Count("sim/distdgl/epochs_simulated", 1, "epochs");
  obs::Count("sim/distdgl/network_bytes",
             static_cast<uint64_t>(report.total_network_bytes), "bytes");
  obs::Count("sim/distdgl/remote_input_vertices",
             report.remote_input_vertices, "vertices");

  if (events != nullptr) {
    // Replay the recorded durations onto the BSP timeline: within a step
    // the phases run in order, every worker enters a phase at its barrier
    // (the per-phase maximum closes it). Serial and in canonical (step,
    // phase, worker) order, so the log is identical for every thread
    // count. Note the timeline's end may differ from report.epoch_seconds
    // in the last float bit (the report sums per-chunk partials); use
    // trace::ReconstructDistDglReport for bit-exact totals.
    static constexpr obs::Phase kPhaseOrder[kStepPhases] = {
        obs::Phase::kSampling, obs::Phase::kFeature, obs::Phase::kForward,
        obs::Phase::kBackward, obs::Phase::kUpdate};
    events->DeclareLinks(net::EventLinks(*fabric));
    events->BeginEpoch("distdgl", static_cast<uint32_t>(profile.steps),
                       static_cast<uint32_t>(k), kStepGrain);
    // A cache record and the spans per step, then the engine's records.
    size_t records = profile.steps * (1 + kStepPhases * static_cast<size_t>(k));
    for (const std::vector<obs::Event>& log : phase_logs) records += log.size();
    events->Reserve(records);
    double t = 0;
    for (size_t step = 0; step < profile.steps; ++step) {
      // DistDGL's feature-cache view of the step: local inputs are hits,
      // remote fetches are misses.
      uint64_t hits = 0, misses = 0;
      for (const MiniBatchProfile& mb : profile.profiles[step]) {
        hits += mb.local_input_vertices;
        misses += mb.remote_input_vertices;
      }
      events->AddCache(static_cast<uint32_t>(step), hits, misses);
      for (size_t pi = 0; pi < kStepPhases; ++pi) {
        double barrier = 0;
        for (PartitionId w = 0; w < k; ++w) {
          barrier = std::max(
              barrier,
              span_dur[(step * static_cast<size_t>(k) + w) * kStepPhases +
                       pi]);
        }
        for (PartitionId w = 0; w < k; ++w) {
          const size_t cell = step * static_cast<size_t>(k) + w;
          const double dur = span_dur[cell * kStepPhases + pi];
          // Communication share of a phase: the duration past the worker's
          // serial pre-comm offset. (Non-negative: every completion is >=
          // its own start offset.)
          const MiniBatchCost& c = costs[cell];
          const CommCost* const comm = pi == 0   ? &c.sampling
                                       : pi == 1 ? &c.feature
                                       : pi == 3 ? &c.backward
                                                 : nullptr;
          events->AddSpan(static_cast<uint32_t>(step), static_cast<int>(w),
                          kPhaseOrder[pi], t, dur,
                          comm != nullptr ? dur - comm->start : 0.0,
                          comm != nullptr ? comm->bytes : 0.0);
        }
        // The communication phases carry flow + link-sample records,
        // shifted from phase-local onto the epoch timeline (the phase
        // entered at the barrier `t`, and every flow start already
        // includes the worker's serial pre-comm offset).
        const int slot = pi == 0 ? 0 : pi == 1 ? 1 : pi == 3 ? 2 : -1;
        if (slot >= 0) {
          events->Append(
              phase_logs[step * kCommPhases + static_cast<size_t>(slot)], t,
              static_cast<uint32_t>(step), kPhaseOrder[pi]);
        }
        t += barrier;
      }
    }
  }
  return report;
}

}  // namespace gnnpart
