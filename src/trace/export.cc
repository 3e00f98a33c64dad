#include "trace/export.h"

#include <cstdio>
#include <fstream>
#include <vector>

namespace gnnpart {
namespace trace {
namespace {

using obs::Event;

// Fixed-format helpers so the emitted bytes depend only on the values.
std::string Micros(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds * 1e6);
  return buf;
}

std::string Bytes(double bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", bytes);
  return buf;
}

std::string Full(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string ChromeTraceJson(const obs::EpochEvents& epoch) {
  std::string out;
  out.reserve(128 + epoch.events.size() * 128);
  out += "{\n\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };

  // Metadata: name the simulated process and one thread row per worker,
  // then the flow process and its rows.
  emit(std::string("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                   "\"args\":{\"name\":\"") +
       epoch.sim + " simulated epoch\"}}");
  for (uint32_t w = 0; w < epoch.workers; ++w) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
         std::to_string(w) + ",\"args\":{\"name\":\"worker " +
         std::to_string(w) + "\"}}");
  }
  emit(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"network flows\"}}");
  for (uint32_t w = 0; w < epoch.workers; ++w) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":" +
         std::to_string(w) + ",\"args\":{\"name\":\"flows from worker " +
         std::to_string(w) + "\"}}");
  }

  for (const Event& s : epoch.events) {
    if (s.kind != Event::Kind::kSpan) continue;
    std::string event = "{\"name\":\"";
    event += obs::PhaseName(s.phase);
    event += "\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":";
    event += Micros(s.t0);
    event += ",\"dur\":";
    event += Micros(s.dur);
    event += ",\"pid\":0,\"tid\":";
    event += std::to_string(s.src);
    event += ",\"args\":{\"step\":";
    event += std::to_string(s.step);
    event += ",\"bytes\":";
    event += Bytes(s.bytes);
    event += ",\"comm_us\":";
    event += Micros(s.comm);
    event += "}}";
    emit(event);
  }
  for (const Event& e : epoch.events) {
    if (e.kind != Event::Kind::kFlow) continue;
    std::string event = "{\"name\":\"";
    event += obs::PhaseName(e.phase);
    event += "\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":";
    event += Micros(e.t0);
    event += ",\"dur\":";
    event += Micros(e.t1 - e.t0);
    event += ",\"pid\":2,\"tid\":";
    event += std::to_string(e.src);
    event += ",\"args\":{\"step\":";
    event += std::to_string(e.step);
    event += ",\"dst\":";
    event += std::to_string(e.dst);
    event += ",\"bytes\":";
    event += Bytes(e.bytes);
    event += ",\"uncontended_us\":";
    event += Micros(e.t1_free - e.t0);
    event += "}}";
    emit(event);
  }
  // Flow arrows on the simulated process: each comm span's end binds to
  // the next span of the same worker — the compute it blocks at the
  // barrier. Deterministic incrementing ids in span order.
  std::vector<const Event*> pending(epoch.workers, nullptr);
  int arrow_id = 1;
  for (const Event& s : epoch.events) {
    if (s.kind != Event::Kind::kSpan || s.src < 0 ||
        static_cast<uint32_t>(s.src) >= epoch.workers) {
      continue;
    }
    const Event*& p = pending[static_cast<size_t>(s.src)];
    if (p != nullptr) {
      const std::string id = std::to_string(arrow_id++);
      const std::string tid = std::to_string(s.src);
      emit("{\"name\":\"blocks\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" +
           id + ",\"pid\":0,\"tid\":" + tid + ",\"ts\":" +
           Micros(p->t0 + p->dur) + "}");
      emit("{\"name\":\"blocks\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
           "\"id\":" +
           id + ",\"pid\":0,\"tid\":" + tid + ",\"ts\":" + Micros(s.t0) +
           "}");
    }
    p = s.comm > 0 ? &s : nullptr;
  }

  out += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"simulator\": \"";
  out += epoch.sim;
  out += "\", \"steps\": \"";
  out += std::to_string(epoch.steps);
  out += "\", \"workers\": \"";
  out += std::to_string(epoch.workers);
  out += "\"}\n}\n";
  return out;
}

std::string TraceCsv(const obs::EpochEvents& epoch) {
  std::string out =
      "step,worker,phase,t_begin,t_end,seconds,comm_seconds,bytes\n";
  out.reserve(out.size() + epoch.events.size() * 72);
  for (const Event& s : epoch.events) {
    if (s.kind != Event::Kind::kSpan) continue;
    out += std::to_string(s.step);
    out += ',';
    out += std::to_string(s.src);
    out += ',';
    out += obs::PhaseName(s.phase);
    out += ',';
    out += Full(s.t0);
    out += ',';
    out += Full(s.t0 + s.dur);
    out += ',';
    out += Full(s.dur);
    out += ',';
    out += Full(s.comm);
    out += ',';
    out += Full(s.bytes);
    out += '\n';
  }
  return out;
}

Status WriteTraceFile(const obs::EpochEvents& epoch, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open '" + path + "' for writing");
  const bool csv =
      path.size() > 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::string body = csv ? TraceCsv(epoch) : ChromeTraceJson(epoch);
  f << body;
  if (!f) return Status::IoError("failed writing '" + path + "'");
  return Status::Ok();
}

}  // namespace trace
}  // namespace gnnpart
