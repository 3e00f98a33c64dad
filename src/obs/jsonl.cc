#include "obs/jsonl.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace gnnpart::obs::jsonl {

void AppendEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendUintArray(const std::vector<uint64_t>& values, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(std::to_string(values[i]));
  }
  out->push_back(']');
}

void AppendIntArray(const std::vector<int>& values, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(std::to_string(values[i]));
  }
  out->push_back(']');
}

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

namespace {

struct Cursor {
  const char* p;
  const char* end;
  void SkipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  }
  bool AtEnd() {
    SkipWs();
    return p >= end;
  }
};

Status ParseString(const char* domain, Cursor* c, size_t lineno,
                   std::string* out) {
  if (c->p >= c->end || *c->p != '"') {
    return BadJson(domain, lineno, "expected '\"'");
  }
  ++c->p;
  out->clear();
  while (c->p < c->end && *c->p != '"') {
    char ch = *c->p++;
    if (ch == '\\') {
      if (c->p >= c->end) return BadJson(domain, lineno, "dangling escape");
      char esc = *c->p++;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (c->end - c->p < 4) {
            return BadJson(domain, lineno, "bad \\u escape");
          }
          char hex[5] = {c->p[0], c->p[1], c->p[2], c->p[3], 0};
          char* hend = nullptr;
          long code = std::strtol(hex, &hend, 16);
          if (hend != hex + 4) return BadJson(domain, lineno, "bad \\u escape");
          c->p += 4;
          if (code > 0x7f) {
            return BadJson(domain, lineno, "non-ASCII \\u escape");
          }
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return BadJson(domain, lineno, "unsupported escape");
      }
    } else {
      out->push_back(ch);
    }
  }
  if (c->p >= c->end) return BadJson(domain, lineno, "unterminated string");
  ++c->p;  // closing quote
  return Status::Ok();
}

Status ParseNumber(const char* domain, Cursor* c, size_t lineno,
                   JsonValue* out) {
  const char* start = c->p;
  bool is_integer = true;
  if (c->p < c->end && (*c->p == '-' || *c->p == '+')) ++c->p;
  while (c->p < c->end &&
         (std::isdigit(static_cast<unsigned char>(*c->p)) || *c->p == '.' ||
          *c->p == 'e' || *c->p == 'E' || *c->p == '-' || *c->p == '+')) {
    if (*c->p == '.' || *c->p == 'e' || *c->p == 'E') is_integer = false;
    ++c->p;
  }
  if (c->p == start) return BadJson(domain, lineno, "expected a number");
  const std::string text(start, c->p);
  char* nend = nullptr;
  out->kind = JsonValue::kNumber;
  out->num = std::strtod(text.c_str(), &nend);
  if (nend != text.c_str() + text.size()) {
    return BadJson(domain, lineno, "malformed number '" + text + "'");
  }
  if (!is_integer) return Status::Ok();
  // Integer text is read exactly: strtod rounds above 2^53 and strtoull
  // saturates above 2^64 - 1, and neither may pass for the written value.
  const char* first = text.c_str() + (text[0] == '+' ? 1 : 0);
  const char* last = text.c_str() + text.size();
  const bool negative = text[0] == '-';
  const std::from_chars_result r =
      negative ? std::from_chars(first, last, out->int_value)
               : std::from_chars(first, last, out->uint_value);
  if (r.ec != std::errc() || r.ptr != last) {
    return BadJson(domain, lineno, "integer out of range '" + text + "'");
  }
  out->is_integer = !negative;
  out->is_int64 = negative || out->uint_value <= INT64_MAX;
  if (!negative) out->int_value = static_cast<int64_t>(out->uint_value);
  return Status::Ok();
}

Status ParseValue(const char* domain, Cursor* c, size_t lineno,
                  JsonValue* out) {
  c->SkipWs();
  if (c->p >= c->end) return BadJson(domain, lineno, "expected a value");
  if (*c->p == '"') {
    out->kind = JsonValue::kString;
    return ParseString(domain, c, lineno, &out->str);
  }
  if (*c->p == 't' || *c->p == 'f') {
    const bool want_true = (*c->p == 't');
    const char* word = want_true ? "true" : "false";
    const size_t len = want_true ? 4 : 5;
    if (static_cast<size_t>(c->end - c->p) < len ||
        std::string_view(c->p, len) != word) {
      return BadJson(domain, lineno, "expected true/false");
    }
    c->p += len;
    out->kind = JsonValue::kBool;
    out->boolean = want_true;
    return Status::Ok();
  }
  if (*c->p == '[') {
    ++c->p;
    out->kind = JsonValue::kIntArray;
    out->array.clear();
    c->SkipWs();
    if (c->p < c->end && *c->p == ']') {
      ++c->p;
      return Status::Ok();
    }
    while (true) {
      JsonValue elem;
      GNNPART_RETURN_NOT_OK(ParseNumber(domain, c, lineno, &elem));
      if (!elem.is_integer) {
        return BadJson(domain, lineno,
                       "array elements must be non-negative integers");
      }
      out->array.push_back(elem.uint_value);
      c->SkipWs();
      if (c->p < c->end && *c->p == ',') {
        ++c->p;
        c->SkipWs();
        continue;
      }
      if (c->p < c->end && *c->p == ']') {
        ++c->p;
        return Status::Ok();
      }
      return BadJson(domain, lineno, "expected ',' or ']' in array");
    }
  }
  return ParseNumber(domain, c, lineno, out);
}

}  // namespace

Status BadJson(const char* domain, size_t lineno, const std::string& what) {
  return Status::InvalidArgument(std::string(domain) + "/bad-json: line " +
                                 std::to_string(lineno) + ": " + what);
}

Status MissingField(const char* domain, size_t lineno,
                    const std::string& field) {
  return Status::InvalidArgument(std::string(domain) +
                                 "/missing-field: line " +
                                 std::to_string(lineno) + ": '" + field + "'");
}

Status ParseFlatObject(const char* domain, std::string_view line,
                       size_t lineno, JsonObject* out) {
  Cursor c{line.data(), line.data() + line.size()};
  c.SkipWs();
  if (c.p >= c.end || *c.p != '{') {
    return BadJson(domain, lineno, "expected '{'");
  }
  ++c.p;
  c.SkipWs();
  if (c.p < c.end && *c.p == '}') {
    ++c.p;
  } else {
    while (true) {
      c.SkipWs();
      std::string key;
      GNNPART_RETURN_NOT_OK(ParseString(domain, &c, lineno, &key));
      c.SkipWs();
      if (c.p >= c.end || *c.p != ':') {
        return BadJson(domain, lineno, "expected ':'");
      }
      ++c.p;
      JsonValue value;
      GNNPART_RETURN_NOT_OK(ParseValue(domain, &c, lineno, &value));
      (*out)[key] = std::move(value);
      c.SkipWs();
      if (c.p < c.end && *c.p == ',') {
        ++c.p;
        continue;
      }
      if (c.p < c.end && *c.p == '}') {
        ++c.p;
        break;
      }
      return BadJson(domain, lineno, "expected ',' or '}'");
    }
  }
  if (!c.AtEnd()) {
    return BadJson(domain, lineno, "trailing characters after object");
  }
  return Status::Ok();
}

Result<const JsonValue*> Require(const char* domain, const JsonObject& obj,
                                 size_t lineno, const std::string& field,
                                 JsonValue::Kind kind) {
  auto it = obj.find(field);
  if (it == obj.end()) return MissingField(domain, lineno, field);
  if (it->second.kind != kind) {
    return BadJson(domain, lineno, "field '" + field + "' has the wrong type");
  }
  return &it->second;
}

Result<uint64_t> RequireUint(const char* domain, const JsonObject& obj,
                             size_t lineno, const std::string& field) {
  auto value = Require(domain, obj, lineno, field, JsonValue::kNumber);
  if (!value.ok()) return value.status();
  if (!(*value)->is_integer) {
    return BadJson(domain, lineno, "field '" + field + "' must be an integer");
  }
  return (*value)->uint_value;
}

Result<double> RequireNumber(const char* domain, const JsonObject& obj,
                             size_t lineno, const std::string& field) {
  auto value = Require(domain, obj, lineno, field, JsonValue::kNumber);
  if (!value.ok()) return value.status();
  return (*value)->num;
}

}  // namespace gnnpart::obs::jsonl
