#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace limbo::util {

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  util::Result<JsonValue> Parse() {
    JsonValue value;
    util::Status s = ParseValue(&value);
    if (!s.ok()) return s;
    SkipWs();
    if (p_ != end_) return Fail("trailing characters after JSON value");
    return value;
  }

 private:
  util::Status Fail(const std::string& what) {
    return util::Status::InvalidArgument(
        "JSON parse error at offset " + std::to_string(offset_) + ": " + what);
  }

  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      Advance();
    }
  }

  void Advance() {
    ++p_;
    ++offset_;
  }

  bool Consume(char c) {
    SkipWs();
    if (p_ == end_ || *p_ != c) return false;
    Advance();
    return true;
  }

  util::Status ParseValue(JsonValue* out) {
    SkipWs();
    if (p_ == end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                      " levels");
        }
        ++depth_;
        util::Status s = *p_ == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return s;
      }
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  util::Status ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    Advance();  // '{'
    if (Consume('}')) return util::Status::Ok();
    while (true) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Fail("expected object key");
      std::string key;
      LIMBO_RETURN_IF_ERROR(ParseString(&key));
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue value;
      LIMBO_RETURN_IF_ERROR(ParseValue(&value));
      out->object.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return util::Status::Ok();
      return Fail("expected ',' or '}' in object");
    }
  }

  util::Status ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    Advance();  // '['
    if (Consume(']')) return util::Status::Ok();
    while (true) {
      JsonValue value;
      LIMBO_RETURN_IF_ERROR(ParseValue(&value));
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return util::Status::Ok();
      return Fail("expected ',' or ']' in array");
    }
  }

  util::Status ParseString(std::string* out) {
    Advance();  // '"'
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        Advance();
        if (p_ == end_) return Fail("unterminated escape");
        switch (*p_) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'u': {
            if (end_ - p_ < 5) return Fail("truncated \\u escape");
            char hex[5] = {p_[1], p_[2], p_[3], p_[4], 0};
            char* hex_end = nullptr;
            long code = std::strtol(hex, &hex_end, 16);
            if (hex_end != hex + 4) return Fail("bad \\u escape");
            if (code > 0x7f) return Fail("non-ASCII \\u escape unsupported");
            *out += static_cast<char>(code);
            Advance();
            Advance();
            Advance();
            Advance();
            break;
          }
          default:
            return Fail("unknown escape");
        }
        Advance();
      } else {
        *out += *p_;
        Advance();
      }
    }
    if (p_ == end_) return Fail("unterminated string");
    Advance();  // closing '"'
    return util::Status::Ok();
  }

  util::Status ParseKeyword(JsonValue* out) {
    out->kind = JsonValue::Kind::kBoolean;
    if (end_ - p_ >= 4 && std::strncmp(p_, "true", 4) == 0) {
      out->boolean = true;
      for (int i = 0; i < 4; ++i) Advance();
      return util::Status::Ok();
    }
    if (end_ - p_ >= 5 && std::strncmp(p_, "false", 5) == 0) {
      out->boolean = false;
      for (int i = 0; i < 5; ++i) Advance();
      return util::Status::Ok();
    }
    return Fail("bad keyword");
  }

  util::Status ParseNull(JsonValue* out) {
    if (end_ - p_ >= 4 && std::strncmp(p_, "null", 4) == 0) {
      out->kind = JsonValue::Kind::kNull;
      for (int i = 0; i < 4; ++i) Advance();
      return util::Status::Ok();
    }
    return Fail("bad keyword");
  }

  util::Status ParseNumber(JsonValue* out) {
    const char* start = p_;
    bool is_integer = true;
    if (p_ != end_ && *p_ == '-') Advance();
    while (p_ != end_ &&
           (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
            *p_ == 'e' || *p_ == 'E' || *p_ == '+' || *p_ == '-')) {
      if (*p_ == '.' || *p_ == 'e' || *p_ == 'E') is_integer = false;
      Advance();
    }
    if (p_ == start) return Fail("expected a value");
    std::string token(start, p_);
    char* parse_end = nullptr;
    if (is_integer && token[0] != '-') {
      out->kind = JsonValue::Kind::kInteger;
      out->integer = std::strtoull(token.c_str(), &parse_end, 10);
    } else {
      out->kind = JsonValue::Kind::kNumber;
      out->number = std::strtod(token.c_str(), &parse_end);
    }
    if (parse_end != token.c_str() + token.size()) return Fail("bad number");
    return util::Status::Ok();
  }

  const char* p_;
  const char* end_;
  size_t offset_ = 0;
  size_t depth_ = 0;  // arrays/objects open around the current value
};

}  // namespace

util::Result<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(double value, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  if (std::strpbrk(buf, ".eE") == nullptr && std::strcmp(buf, "inf") != 0 &&
      std::strcmp(buf, "-inf") != 0 && std::strcmp(buf, "nan") != 0) {
    std::strcat(buf, ".0");
  }
  *out += buf;
}

void AppendCanonicalJson(const JsonValue& value, std::string* out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBoolean:
      *out += value.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kInteger:
      *out += std::to_string(value.integer);
      return;
    case JsonValue::Kind::kNumber:
      AppendJsonNumber(value.number, out);
      return;
    case JsonValue::Kind::kString:
      AppendJsonString(value.str, out);
      return;
    case JsonValue::Kind::kArray:
      out->push_back('[');
      for (size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendCanonicalJson(value.array[i], out);
      }
      out->push_back(']');
      return;
    case JsonValue::Kind::kObject: {
      // Sort by key only (stable), so duplicate keys keep their parse
      // order and the serialization is a pure function of the value.
      std::vector<size_t> order(value.object.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return value.object[a].first < value.object[b].first;
      });
      out->push_back('{');
      for (size_t i = 0; i < order.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendJsonString(value.object[order[i]].first, out);
        out->push_back(':');
        AppendCanonicalJson(value.object[order[i]].second, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace limbo::util
