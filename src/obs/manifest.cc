#include "obs/manifest.h"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "obs/jsonl.h"
#include "obs/memory.h"

namespace gnnpart::obs {
namespace {

// The JSON-lines plumbing lives in obs/jsonl.{h,cc}, shared with the event
// timeline; the reader wrappers below pin this artifact's error domain so
// every invariant name stays exactly "manifest/...".
constexpr const char* kDomain = "manifest";

using jsonl::JsonObject;
using jsonl::JsonValue;

Status BadJson(size_t lineno, const std::string& what) {
  return jsonl::BadJson(kDomain, lineno, what);
}

Status ParseFlatObject(std::string_view line, size_t lineno, JsonObject* out) {
  return jsonl::ParseFlatObject(kDomain, line, lineno, out);
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

Status ParseMetricLine(const JsonObject& obj, const std::string& type,
                       size_t lineno, MetricRow* row) {
  auto name = Require(obj, lineno, "name", JsonValue::kString);
  if (!name.ok()) return name.status();
  row->name = (*name)->str;
  auto unit = Require(obj, lineno, "unit", JsonValue::kString);
  if (!unit.ok()) return unit.status();
  row->unit = (*unit)->str;
  auto det = Require(obj, lineno, "det", JsonValue::kBool);
  if (!det.ok()) return det.status();
  row->deterministic = (*det)->boolean;

  if (type == "counter" || type == "gauge") {
    row->kind = (type == "counter") ? MetricKind::kCounter : MetricKind::kGauge;
    auto value = Require(obj, lineno, "value", JsonValue::kNumber);
    if (!value.ok()) return value.status();
    if (type == "counter") {
      if (!(*value)->is_integer) {
        return BadJson(lineno, "counter value must be a non-negative integer");
      }
      row->value = (*value)->uint_value;
    } else {
      if (!(*value)->is_int64) {
        return BadJson(lineno, "gauge value must be an integer in int64 range");
      }
      row->level = (*value)->int_value;
    }
    return Status::Ok();
  }
  if (type == "histogram") {
    row->kind = MetricKind::kHistogram;
    auto bounds = Require(obj, lineno, "bounds", JsonValue::kIntArray);
    if (!bounds.ok()) return bounds.status();
    row->bounds = (*bounds)->array;
    auto buckets = Require(obj, lineno, "buckets", JsonValue::kIntArray);
    if (!buckets.ok()) return buckets.status();
    row->buckets = (*buckets)->array;
    if (row->buckets.size() != row->bounds.size() + 1) {
      return Status::InvalidArgument(
          "manifest/bucket-shape: line " + std::to_string(lineno) + ": '" +
          row->name + "' has " + std::to_string(row->buckets.size()) +
          " buckets for " + std::to_string(row->bounds.size()) +
          " bounds (want bounds+1)");
    }
    auto count = RequireUint(obj, lineno, "count");
    if (!count.ok()) return count.status();
    row->count = *count;
    auto sum = RequireUint(obj, lineno, "sum");
    if (!sum.ok()) return sum.status();
    row->sum = *sum;
    return Status::Ok();
  }
  if (type == "timer") {
    row->kind = MetricKind::kTimer;
    auto seconds = Require(obj, lineno, "seconds", JsonValue::kNumber);
    if (!seconds.ok()) return seconds.status();
    row->seconds = (*seconds)->num;
    auto count = RequireUint(obj, lineno, "count");
    if (!count.ok()) return count.status();
    row->count = *count;
    return Status::Ok();
  }
  return Status::InvalidArgument("manifest/unknown-type: line " +
                                 std::to_string(lineno) + ": '" + type + "'");
}

}  // namespace

void AppendMetricLine(const MetricRow& row, std::string* out) {
  out->append("{\"type\":\"");
  out->append(MetricKindName(row.kind));
  out->append("\",\"name\":");
  jsonl::AppendEscaped(row.name, out);
  out->append(",\"unit\":");
  jsonl::AppendEscaped(row.unit, out);
  out->append(",\"det\":");
  out->append(row.deterministic ? "true" : "false");
  switch (row.kind) {
    case MetricKind::kCounter:
      out->append(",\"value\":");
      out->append(std::to_string(row.value));
      break;
    case MetricKind::kGauge:
      out->append(",\"value\":");
      out->append(std::to_string(row.level));
      break;
    case MetricKind::kHistogram:
      out->append(",\"bounds\":");
      jsonl::AppendUintArray(row.bounds, out);
      out->append(",\"buckets\":");
      jsonl::AppendUintArray(row.buckets, out);
      out->append(",\"count\":");
      out->append(std::to_string(row.count));
      out->append(",\"sum\":");
      out->append(std::to_string(row.sum));
      break;
    case MetricKind::kTimer:
      out->append(",\"seconds\":");
      jsonl::AppendDouble(row.seconds, out);
      out->append(",\"count\":");
      out->append(std::to_string(row.count));
      break;
  }
  out->append("}\n");
}

void WriteManifest(const MetricsSnapshot& snap,
                   const std::vector<std::pair<std::string, std::string>>& meta,
                   std::string* out) {
  out->append("{\"type\":\"meta\",\"schema\":\"");
  out->append(kManifestSchema);
  out->append("\",\"version\":");
  out->append(std::to_string(kManifestVersion));
  for (const auto& [key, value] : meta) {
    out->push_back(',');
    jsonl::AppendEscaped(key, out);
    out->push_back(':');
    jsonl::AppendEscaped(value, out);
  }
  out->append("}\n");
  for (const MetricRow& row : snap.rows) AppendMetricLine(row, out);
}

Status WriteManifestFile(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  RecordPeakRss();
  std::string text;
  WriteManifest(Snapshot(), meta, &text);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) return Status::IoError("short write to '" + path + "'");
  return Status::Ok();
}

Result<Manifest> ParseManifest(const std::string& content) {
  Manifest manifest;
  std::istringstream in(content);
  std::string line;
  size_t lineno = 0;
  bool saw_meta = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonObject obj;
    GNNPART_RETURN_NOT_OK(ParseFlatObject(line, lineno, &obj));
    auto type = Require(obj, lineno, "type", JsonValue::kString);
    if (!type.ok()) return type.status();
    if ((*type)->str == "meta") {
      if (saw_meta) return BadJson(lineno, "duplicate meta line");
      saw_meta = true;
      auto schema = Require(obj, lineno, "schema", JsonValue::kString);
      if (!schema.ok()) return schema.status();
      if ((*schema)->str != kManifestSchema) {
        return Status::InvalidArgument("manifest/schema: line " +
                                       std::to_string(lineno) + ": got '" +
                                       (*schema)->str + "', want '" +
                                       kManifestSchema + "'");
      }
      auto version = RequireUint(obj, lineno, "version");
      if (!version.ok()) return version.status();
      if (*version != static_cast<uint64_t>(kManifestVersion)) {
        return Status::InvalidArgument(
            "manifest/schema-version: line " + std::to_string(lineno) +
            ": got " + std::to_string(*version) + ", supported " +
            std::to_string(kManifestVersion));
      }
      manifest.version = static_cast<int>(*version);
      for (const auto& [key, value] : obj) {
        if (key == "type" || key == "schema" || key == "version") continue;
        if (value.kind == JsonValue::kString) {
          manifest.meta.emplace_back(key, value.str);
        }
      }
      continue;
    }
    if (!saw_meta) {
      return Status::InvalidArgument(
          "manifest/missing-meta: line " + std::to_string(lineno) +
          ": first record must be the meta line");
    }
    MetricRow row;
    GNNPART_RETURN_NOT_OK(ParseMetricLine(obj, (*type)->str, lineno, &row));
    manifest.rows.push_back(std::move(row));
  }
  if (!saw_meta) {
    return Status::InvalidArgument("manifest/missing-meta: empty manifest");
  }
  return manifest;
}

Result<Manifest> LoadManifestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseManifest(buffer.str());
}

}  // namespace gnnpart::obs
