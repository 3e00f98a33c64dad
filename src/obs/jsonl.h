#ifndef GNNPART_OBS_JSONL_H_
#define GNNPART_OBS_JSONL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// Shared JSON-lines machinery for the obs artifacts (DESIGN.md §9/§14):
/// the writer helpers and the strict flat-object reader behind both the
/// metrics manifest (manifest.cc) and the event timeline (events.cc).
///
/// The reader supports exactly the value shapes the writers produce —
/// strings, numbers, booleans, arrays of non-negative integers — and
/// rejects anything else loudly. Every error is prefixed with the caller's
/// `domain` ("manifest", "events"), so the invariant names stay stable per
/// artifact: manifest/bad-json, events/missing-field, ...
namespace gnnpart::obs::jsonl {

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends `s` as a quoted JSON string (control characters escaped).
void AppendEscaped(std::string_view s, std::string* out);

/// Appends `[v0,v1,...]`.
void AppendUintArray(const std::vector<uint64_t>& values, std::string* out);
void AppendIntArray(const std::vector<int>& values, std::string* out);

/// Appends a double with %.17g — enough digits that strtod round-trips
/// the exact bit pattern (bit-exactness survives serialization).
void AppendDouble(double v, std::string* out);

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct JsonValue {
  enum Kind { kString, kNumber, kBool, kIntArray } kind = kNumber;
  std::string str;
  double num = 0.0;
  /// Exact values of integer text (no '.', 'e' or 'E'): `uint_value` when
  /// it is non-negative (`is_integer`), `int_value` when it fits int64
  /// (`is_int64`). Integer text outside both ranges is rejected.
  uint64_t uint_value = 0;
  int64_t int_value = 0;
  bool is_integer = false;
  bool is_int64 = false;
  bool boolean = false;
  std::vector<uint64_t> array;
};

using JsonObject = std::map<std::string, JsonValue>;

/// `<domain>/bad-json: line N: <what>`.
Status BadJson(const char* domain, size_t lineno, const std::string& what);

/// `<domain>/missing-field: line N: '<field>'`.
Status MissingField(const char* domain, size_t lineno,
                    const std::string& field);

/// Parses one `{"k":v,...}` line; trailing characters are an error.
Status ParseFlatObject(const char* domain, std::string_view line,
                       size_t lineno, JsonObject* out);

/// Field lookup with a kind check (missing-field / bad-json on mismatch).
Result<const JsonValue*> Require(const char* domain, const JsonObject& obj,
                                 size_t lineno, const std::string& field,
                                 JsonValue::Kind kind);

/// Require + non-negative-integer check.
Result<uint64_t> RequireUint(const char* domain, const JsonObject& obj,
                             size_t lineno, const std::string& field);

/// Require a number field, returning its double value (signed OK).
Result<double> RequireNumber(const char* domain, const JsonObject& obj,
                             size_t lineno, const std::string& field);

}  // namespace gnnpart::obs::jsonl

#endif  // GNNPART_OBS_JSONL_H_
