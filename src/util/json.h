#ifndef LIMBO_UTIL_JSON_H_
#define LIMBO_UTIL_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace limbo::util {

/// A parsed JSON value. Minimal by design: the library's JSON surfaces
/// (run reports, the limbo-serve query protocol) are machine-to-machine
/// line formats, so integers and doubles stay distinct (a bare integer
/// token parses as kInteger, anything with '.', 'e' or a leading '-' as
/// kNumber) and object key order is preserved.
struct JsonValue {
  enum class Kind {
    kNull,
    kBoolean,
    kInteger,
    kNumber,
    kString,
    kArray,
    kObject
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  uint64_t integer = 0;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First value under `key` (objects only), or nullptr.
  const JsonValue* Find(const char* key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Deepest array/object nesting ParseJson accepts. The parser and
/// JsonValue's destructor both recurse once per level, so the cap bounds
/// their stack use whatever an untrusted line holds; real documents (run
/// reports, serve queries) nest a handful of levels.
inline constexpr size_t kMaxJsonDepth = 256;

/// Parses one complete JSON document. Trailing non-whitespace after the
/// value is an error (NDJSON framing splits lines before parsing), and so
/// is nesting deeper than kMaxJsonDepth (InvalidArgument).
util::Result<JsonValue> ParseJson(const std::string& text);

/// Appends `s` as a quoted JSON string literal (with escaping) to `out`.
void AppendJsonString(const std::string& s, std::string* out);

/// Appends a double using %.17g — survives a parse round-trip exactly —
/// always shaped as a JSON number token (integral values get ".0").
void AppendJsonNumber(double value, std::string* out);

/// Appends a canonical serialization of `value`: no whitespace, object
/// keys sorted (stably, so duplicate keys keep their relative order),
/// numbers via AppendJsonNumber. Two documents that parse to the same
/// value modulo key order and formatting canonicalize to the same bytes
/// — the property the serve-layer response cache keys rely on.
void AppendCanonicalJson(const JsonValue& value, std::string* out);

}  // namespace limbo::util

#endif  // LIMBO_UTIL_JSON_H_
