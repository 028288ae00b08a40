#ifndef LIMBO_UTIL_STRINGS_H_
#define LIMBO_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace limbo::util {

/// Splits `input` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view input, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strict parse of a real-valued flag: the whole token is one finite
/// number (what std::atof would silently turn "abc" into 0 for). Leaves
/// `*out` untouched and returns false otherwise.
bool ParseReal(const std::string& text, double* out);

/// Strict parse of a size flag: every byte a digit (no sign, no
/// exponent), at most 19 digits so the value fits in 64 bits. Leaves
/// `*out` untouched and returns false otherwise.
bool ParseSize(const std::string& text, size_t* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace limbo::util

#endif  // LIMBO_UTIL_STRINGS_H_
