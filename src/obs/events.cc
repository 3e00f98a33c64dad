#include "obs/events.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "check/check.h"
#include "obs/jsonl.h"

namespace gnnpart::obs {
namespace {

constexpr const char* kDomain = "events";

using jsonl::JsonObject;
using jsonl::JsonValue;

Status BadJson(size_t lineno, const std::string& what) {
  return jsonl::BadJson(kDomain, lineno, what);
}

Result<const JsonValue*> Require(const JsonObject& obj, size_t lineno,
                                 const std::string& field,
                                 JsonValue::Kind kind) {
  return jsonl::Require(kDomain, obj, lineno, field, kind);
}

Result<uint64_t> RequireUint(const JsonObject& obj, size_t lineno,
                             const std::string& field) {
  return jsonl::RequireUint(kDomain, obj, lineno, field);
}

Result<double> RequireNumber(const JsonObject& obj, size_t lineno,
                             const std::string& field) {
  return jsonl::RequireNumber(kDomain, obj, lineno, field);
}

constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
constexpr uint64_t kUint32Max = std::numeric_limits<uint32_t>::max();

// RequireUint for a field the reader narrows: a value above `max` would
// wrap in the cast and re-serialize as a different record.
Result<uint64_t> RequireUintAtMost(const JsonObject& obj, size_t lineno,
                                   const std::string& field, uint64_t max) {
  auto value = RequireUint(obj, lineno, field);
  if (value.ok() && *value > max) {
    return BadJson(lineno, "field '" + field + "' out of range");
  }
  return value;
}

// Reverse of PhaseName; rejects a name that matches no phase.
Result<Phase> RequirePhase(const JsonObject& obj, size_t lineno) {
  auto name = Require(obj, lineno, "phase", JsonValue::kString);
  if (!name.ok()) return name.status();
  for (int i = 0; i < kNumPhases; ++i) {
    const Phase phase = static_cast<Phase>(i);
    if ((*name)->str == PhaseName(phase)) return phase;
  }
  return Status::InvalidArgument("events/unknown-phase: line " +
                                 std::to_string(lineno) + ": '" +
                                 (*name)->str + "'");
}

void AppendEventLine(const Event& e, std::string* out) {
  switch (e.kind) {
    case Event::Kind::kSpan:
      out->append("{\"type\":\"span\",\"step\":");
      out->append(std::to_string(e.step));
      out->append(",\"worker\":");
      out->append(std::to_string(e.src));
      out->append(",\"phase\":");
      jsonl::AppendEscaped(PhaseName(e.phase), out);
      out->append(",\"t0\":");
      jsonl::AppendDouble(e.t0, out);
      out->append(",\"dur\":");
      jsonl::AppendDouble(e.dur, out);
      out->append(",\"comm\":");
      jsonl::AppendDouble(e.comm, out);
      out->append(",\"bytes\":");
      jsonl::AppendDouble(e.bytes, out);
      break;
    case Event::Kind::kFlow:
      out->append("{\"type\":\"flow\",\"step\":");
      out->append(std::to_string(e.step));
      out->append(",\"phase\":");
      jsonl::AppendEscaped(PhaseName(e.phase), out);
      out->append(",\"src\":");
      out->append(std::to_string(e.src));
      out->append(",\"dst\":");
      out->append(std::to_string(e.dst));
      out->append(",\"t0\":");
      jsonl::AppendDouble(e.t0, out);
      out->append(",\"t1\":");
      jsonl::AppendDouble(e.t1, out);
      out->append(",\"t1f\":");
      jsonl::AppendDouble(e.t1_free, out);
      out->append(",\"bytes\":");
      jsonl::AppendDouble(e.bytes, out);
      out->append(",\"links\":");
      jsonl::AppendIntArray(e.links, out);
      break;
    case Event::Kind::kSample:
      out->append("{\"type\":\"sample\",\"link\":");
      out->append(std::to_string(e.link));
      out->append(",\"t0\":");
      jsonl::AppendDouble(e.t0, out);
      out->append(",\"t1\":");
      jsonl::AppendDouble(e.t1, out);
      out->append(",\"rate\":");
      jsonl::AppendDouble(e.rate, out);
      out->append(",\"flows\":");
      out->append(std::to_string(e.flows));
      break;
    case Event::Kind::kCache:
      out->append("{\"type\":\"cache\",\"step\":");
      out->append(std::to_string(e.step));
      out->append(",\"hits\":");
      out->append(std::to_string(e.hits));
      out->append(",\"misses\":");
      out->append(std::to_string(e.misses));
      break;
  }
  out->append("}\n");
}

Status ParseEventLine(const JsonObject& obj, const std::string& type,
                      size_t lineno, Event* e) {
  if (type == "span") {
    e->kind = Event::Kind::kSpan;
    auto step = RequireUintAtMost(obj, lineno, "step", kUint32Max);
    if (!step.ok()) return step.status();
    e->step = static_cast<uint32_t>(*step);
    auto worker = RequireUintAtMost(obj, lineno, "worker", kIntMax);
    if (!worker.ok()) return worker.status();
    e->src = static_cast<int>(*worker);
    auto phase = RequirePhase(obj, lineno);
    if (!phase.ok()) return phase.status();
    e->phase = *phase;
    for (auto [field, slot] :
         {std::pair<const char*, double*>{"t0", &e->t0},
          {"dur", &e->dur},
          {"comm", &e->comm},
          {"bytes", &e->bytes}}) {
      auto v = RequireNumber(obj, lineno, field);
      if (!v.ok()) return v.status();
      *slot = *v;
    }
    return Status::Ok();
  }
  if (type == "flow") {
    e->kind = Event::Kind::kFlow;
    auto step = RequireUintAtMost(obj, lineno, "step", kUint32Max);
    if (!step.ok()) return step.status();
    e->step = static_cast<uint32_t>(*step);
    auto phase = RequirePhase(obj, lineno);
    if (!phase.ok()) return phase.status();
    e->phase = *phase;
    auto src = RequireUintAtMost(obj, lineno, "src", kIntMax);
    if (!src.ok()) return src.status();
    e->src = static_cast<int>(*src);
    // dst may be -1 (aggregate route), so it goes through the signed path.
    auto dst = RequireNumber(obj, lineno, "dst");
    if (!dst.ok()) return dst.status();
    // Converting a double outside int's range (1e999 parses as inf) is
    // undefined behaviour, so range-check before the cast.
    if (!(*dst >= -1 && *dst <= std::numeric_limits<int>::max())) {
      return BadJson(lineno, "field 'dst' out of range");
    }
    e->dst = static_cast<int>(*dst);
    for (auto [field, slot] :
         {std::pair<const char*, double*>{"t0", &e->t0},
          {"t1", &e->t1},
          {"t1f", &e->t1_free},
          {"bytes", &e->bytes}}) {
      auto v = RequireNumber(obj, lineno, field);
      if (!v.ok()) return v.status();
      *slot = *v;
    }
    auto links = Require(obj, lineno, "links", JsonValue::kIntArray);
    if (!links.ok()) return links.status();
    e->links.clear();
    for (uint64_t l : (*links)->array) {
      if (l > kIntMax) return BadJson(lineno, "field 'links' out of range");
      e->links.push_back(static_cast<int>(l));
    }
    return Status::Ok();
  }
  if (type == "sample") {
    e->kind = Event::Kind::kSample;
    auto link = RequireUintAtMost(obj, lineno, "link", kIntMax);
    if (!link.ok()) return link.status();
    e->link = static_cast<int>(*link);
    for (auto [field, slot] :
         {std::pair<const char*, double*>{"t0", &e->t0},
          {"t1", &e->t1},
          {"rate", &e->rate}}) {
      auto v = RequireNumber(obj, lineno, field);
      if (!v.ok()) return v.status();
      *slot = *v;
    }
    auto flows = RequireUint(obj, lineno, "flows");
    if (!flows.ok()) return flows.status();
    e->flows = *flows;
    return Status::Ok();
  }
  if (type == "cache") {
    e->kind = Event::Kind::kCache;
    auto step = RequireUintAtMost(obj, lineno, "step", kUint32Max);
    if (!step.ok()) return step.status();
    e->step = static_cast<uint32_t>(*step);
    auto hits = RequireUint(obj, lineno, "hits");
    if (!hits.ok()) return hits.status();
    e->hits = *hits;
    auto misses = RequireUint(obj, lineno, "misses");
    if (!misses.ok()) return misses.status();
    e->misses = *misses;
    return Status::Ok();
  }
  return Status::InvalidArgument("events/unknown-type: line " +
                                 std::to_string(lineno) + ": '" + type + "'");
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSampling:
      return "sampling";
    case Phase::kFeature:
      return "feature";
    case Phase::kForward:
      return "forward";
    case Phase::kBackward:
      return "backward";
    case Phase::kUpdate:
      return "update";
    case Phase::kForwardCompute:
      return "fwd_compute";
    case Phase::kForwardSync:
      return "fwd_sync";
    case Phase::kBackwardCompute:
      return "bwd_compute";
    case Phase::kBackwardSync:
      return "bwd_sync";
    case Phase::kOptimizer:
      return "optimizer";
    case Phase::kQueue:
      return "queue";
  }
  return "unknown";
}

void EventLog::DeclareLinks(const std::vector<EventLink>& links) {
  if (links_.empty()) {
    links_ = links;
    return;
  }
  GNNPART_CHECK_CHEAP(links_.size() == links.size(),
                      "events: fabric changed between DeclareLinks calls");
  for (size_t i = 0; i < links.size(); ++i) {
    GNNPART_CHECK_CHEAP(links_[i].name == links[i].name &&
                            links_[i].capacity == links[i].capacity,
                        "events: fabric changed between DeclareLinks calls");
  }
}

void EventLog::BeginEpoch(const std::string& sim, uint32_t steps,
                          uint32_t workers, uint32_t grain) {
  EpochEvents epoch;
  epoch.sim = sim;
  epoch.steps = steps;
  epoch.workers = workers;
  epoch.grain = grain;
  epochs_.push_back(std::move(epoch));
}

void EventLog::AddSpan(uint32_t step, int worker, Phase phase, double t0,
                       double dur, double comm, double bytes) {
  GNNPART_CHECK_CHEAP(!epochs_.empty(), "events: span before BeginEpoch");
  Event e;
  e.kind = Event::Kind::kSpan;
  e.step = step;
  e.src = worker;
  e.phase = phase;
  e.t0 = t0;
  e.dur = dur;
  e.comm = comm;
  e.bytes = bytes;
  epochs_.back().events.push_back(std::move(e));
}

void EventLog::AddCache(uint32_t step, uint64_t hits, uint64_t misses) {
  GNNPART_CHECK_CHEAP(!epochs_.empty(), "events: cache before BeginEpoch");
  Event e;
  e.kind = Event::Kind::kCache;
  e.step = step;
  e.hits = hits;
  e.misses = misses;
  epochs_.back().events.push_back(std::move(e));
}

void EventLog::Reserve(size_t records) {
  GNNPART_CHECK_CHEAP(!epochs_.empty(), "events: reserve before BeginEpoch");
  std::vector<Event>& out = epochs_.back().events;
  out.reserve(out.size() + records);
}

void EventLog::Append(std::span<const Event> records, double t,
                      uint32_t step, Phase phase) {
  GNNPART_CHECK_CHEAP(!epochs_.empty(), "events: record before BeginEpoch");
  std::vector<Event>& out = epochs_.back().events;
  const size_t base = out.size();
  out.insert(out.end(), records.begin(), records.end());
  for (size_t i = base; i < out.size(); ++i) {
    Event& e = out[i];
    if (e.kind == Event::Kind::kFlow) {
      e.step = step;
      e.phase = phase;
    }
    // Adding +0.0 would turn a parsed -0 into 0, so an unshifted append
    // copies the times as they are.
    if (t == 0 || e.kind == Event::Kind::kCache) continue;
    e.t0 += t;
    if (e.kind == Event::Kind::kSpan) continue;
    e.t1 += t;
    if (e.kind == Event::Kind::kFlow) e.t1_free += t;
  }
}

void EventLog::AddRepartition(uint64_t batch, const std::string& trigger,
                              uint64_t moved, uint64_t replicas,
                              double bytes) {
  RunEvent e;
  e.kind = RunEvent::Kind::kRepartition;
  e.batch = batch;
  e.trigger = trigger;
  e.moved = moved;
  e.replicas = replicas;
  e.bytes = bytes;
  run_events_.push_back(std::move(e));
}

void EventLog::AddMigration(uint64_t batch, double t0, double t1,
                            double bytes) {
  RunEvent e;
  e.kind = RunEvent::Kind::kMigration;
  e.batch = batch;
  e.t0 = t0;
  e.t1 = t1;
  e.bytes = bytes;
  run_events_.push_back(std::move(e));
}

void WriteEvents(const EventLog& log,
                 const std::vector<std::pair<std::string, std::string>>& meta,
                 std::string* out) {
  out->append("{\"type\":\"meta\",\"schema\":\"");
  out->append(kEventsSchema);
  out->append("\",\"version\":");
  out->append(std::to_string(kEventsVersion));
  for (const auto& [key, value] : meta) {
    out->push_back(',');
    jsonl::AppendEscaped(key, out);
    out->push_back(':');
    jsonl::AppendEscaped(value, out);
  }
  out->append("}\n");
  for (size_t i = 0; i < log.links().size(); ++i) {
    out->append("{\"type\":\"link\",\"id\":");
    out->append(std::to_string(i));
    out->append(",\"name\":");
    jsonl::AppendEscaped(log.links()[i].name, out);
    out->append(",\"capacity\":");
    jsonl::AppendDouble(log.links()[i].capacity, out);
    out->append("}\n");
  }
  for (const RunEvent& e : log.run_events()) {
    if (e.kind == RunEvent::Kind::kRepartition) {
      out->append("{\"type\":\"repartition\",\"batch\":");
      out->append(std::to_string(e.batch));
      out->append(",\"trigger\":");
      jsonl::AppendEscaped(e.trigger, out);
      out->append(",\"moved\":");
      out->append(std::to_string(e.moved));
      out->append(",\"replicas\":");
      out->append(std::to_string(e.replicas));
      out->append(",\"bytes\":");
      jsonl::AppendDouble(e.bytes, out);
    } else {
      out->append("{\"type\":\"migration\",\"batch\":");
      out->append(std::to_string(e.batch));
      out->append(",\"t0\":");
      jsonl::AppendDouble(e.t0, out);
      out->append(",\"t1\":");
      jsonl::AppendDouble(e.t1, out);
      out->append(",\"bytes\":");
      jsonl::AppendDouble(e.bytes, out);
    }
    out->append("}\n");
  }
  for (const EpochEvents& epoch : log.epochs()) {
    out->append("{\"type\":\"epoch\",\"sim\":");
    jsonl::AppendEscaped(epoch.sim, out);
    out->append(",\"steps\":");
    out->append(std::to_string(epoch.steps));
    out->append(",\"workers\":");
    out->append(std::to_string(epoch.workers));
    out->append(",\"grain\":");
    out->append(std::to_string(epoch.grain));
    out->append("}\n");
    for (const Event& e : epoch.events) AppendEventLine(e, out);
  }
}

Status WriteEventsFile(
    const EventLog& log, const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  std::string text;
  WriteEvents(log, meta, &text);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) return Status::IoError("short write to '" + path + "'");
  return Status::Ok();
}

Result<EventLog> ParseEvents(const std::string& content) {
  EventLog log;
  std::vector<EventLink> links;
  std::istringstream in(content);
  std::string line;
  size_t lineno = 0;
  bool saw_meta = false;
  bool links_closed = false;  // a non-link record ends the link section
  bool in_epoch = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonObject obj;
    GNNPART_RETURN_NOT_OK(jsonl::ParseFlatObject(kDomain, line, lineno, &obj));
    auto type = Require(obj, lineno, "type", JsonValue::kString);
    if (!type.ok()) return type.status();
    const std::string& t = (*type)->str;
    if (t == "meta") {
      if (saw_meta) return BadJson(lineno, "duplicate meta line");
      saw_meta = true;
      auto schema = Require(obj, lineno, "schema", JsonValue::kString);
      if (!schema.ok()) return schema.status();
      if ((*schema)->str != kEventsSchema) {
        return Status::InvalidArgument("events/schema: line " +
                                       std::to_string(lineno) + ": got '" +
                                       (*schema)->str + "', want '" +
                                       kEventsSchema + "'");
      }
      auto version = RequireUint(obj, lineno, "version");
      if (!version.ok()) return version.status();
      if (*version != static_cast<uint64_t>(kEventsVersion)) {
        return Status::InvalidArgument(
            "events/schema-version: line " + std::to_string(lineno) +
            ": got " + std::to_string(*version) + ", supported " +
            std::to_string(kEventsVersion));
      }
      continue;
    }
    if (!saw_meta) {
      return Status::InvalidArgument(
          "events/missing-meta: line " + std::to_string(lineno) +
          ": first record must be the meta line");
    }
    if (t == "link") {
      if (links_closed) {
        return Status::InvalidArgument(
            "events/link-order: line " + std::to_string(lineno) +
            ": link record after the link section closed");
      }
      auto id = RequireUint(obj, lineno, "id");
      if (!id.ok()) return id.status();
      if (*id != links.size()) {
        return Status::InvalidArgument(
            "events/link-order: line " + std::to_string(lineno) + ": id " +
            std::to_string(*id) + ", expected " +
            std::to_string(links.size()));
      }
      auto name = Require(obj, lineno, "name", JsonValue::kString);
      if (!name.ok()) return name.status();
      auto capacity = RequireNumber(obj, lineno, "capacity");
      if (!capacity.ok()) return capacity.status();
      links.push_back({(*name)->str, *capacity});
      continue;
    }
    links_closed = true;
    if (t == "repartition") {
      auto batch = RequireUint(obj, lineno, "batch");
      if (!batch.ok()) return batch.status();
      auto trigger = Require(obj, lineno, "trigger", JsonValue::kString);
      if (!trigger.ok()) return trigger.status();
      auto moved = RequireUint(obj, lineno, "moved");
      if (!moved.ok()) return moved.status();
      auto replicas = RequireUint(obj, lineno, "replicas");
      if (!replicas.ok()) return replicas.status();
      auto bytes = RequireNumber(obj, lineno, "bytes");
      if (!bytes.ok()) return bytes.status();
      log.AddRepartition(*batch, (*trigger)->str, *moved, *replicas, *bytes);
      continue;
    }
    if (t == "migration") {
      auto batch = RequireUint(obj, lineno, "batch");
      if (!batch.ok()) return batch.status();
      auto t0 = RequireNumber(obj, lineno, "t0");
      if (!t0.ok()) return t0.status();
      auto t1 = RequireNumber(obj, lineno, "t1");
      if (!t1.ok()) return t1.status();
      auto bytes = RequireNumber(obj, lineno, "bytes");
      if (!bytes.ok()) return bytes.status();
      log.AddMigration(*batch, *t0, *t1, *bytes);
      continue;
    }
    if (t == "epoch") {
      auto sim = Require(obj, lineno, "sim", JsonValue::kString);
      if (!sim.ok()) return sim.status();
      auto steps = RequireUintAtMost(obj, lineno, "steps", kUint32Max);
      if (!steps.ok()) return steps.status();
      auto workers = RequireUintAtMost(obj, lineno, "workers", kUint32Max);
      if (!workers.ok()) return workers.status();
      auto grain = RequireUintAtMost(obj, lineno, "grain", kUint32Max);
      if (!grain.ok()) return grain.status();
      log.BeginEpoch((*sim)->str, static_cast<uint32_t>(*steps),
                     static_cast<uint32_t>(*workers),
                     static_cast<uint32_t>(*grain));
      in_epoch = true;
      continue;
    }
    Event e;
    GNNPART_RETURN_NOT_OK(ParseEventLine(obj, t, lineno, &e));
    if (!in_epoch) {
      return Status::InvalidArgument(
          "events/orphan-record: line " + std::to_string(lineno) + ": '" + t +
          "' record outside any epoch");
    }
    log.Append({&e, 1}, 0.0, e.step, e.phase);
  }
  if (!saw_meta) {
    return Status::InvalidArgument("events/missing-meta: empty event log");
  }
  log.DeclareLinks(links);
  return log;
}

Result<EventLog> LoadEventsFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseEvents(buffer.str());
}

}  // namespace gnnpart::obs
