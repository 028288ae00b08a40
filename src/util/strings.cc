#include "util/strings.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace limbo::util {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t b = 0;
  size_t e = input.size();
  while (b < e && (input[b] == ' ' || input[b] == '\t' || input[b] == '\r' ||
                   input[b] == '\n')) {
    ++b;
  }
  while (e > b && (input[e - 1] == ' ' || input[e - 1] == '\t' ||
                   input[e - 1] == '\r' || input[e - 1] == '\n')) {
    --e;
  }
  return input.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool ParseReal(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseSize(const std::string& text, size_t* out) {
  if (text.empty() || text.size() > 19) return false;
  for (const char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  *out = static_cast<size_t>(std::stoull(text));
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int len = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (len > 0) {
    out.resize(static_cast<size_t>(len));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace limbo::util
