#ifndef SMDB_COMMON_PARSE_H_
#define SMDB_COMMON_PARSE_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace smdb {

/// Strict parsing of command-line numbers: the whole string must be the
/// number, so "4x", "abc" and "" are errors rather than 4, an exception or
/// 0. On failure *out is left as it was.

/// A plain decimal digit string no larger than T's maximum. strtoull alone
/// would accept "-3" (wrapping to 2^64-3), leading whitespace and trailing
/// text.
template <typename T = uint64_t>
bool ParseUint(const std::string& val, T* out) {
  if (val.empty() || val[0] < '0' || val[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(val.c_str(), &end, 10);
  if (errno != 0 || end != val.c_str() + val.size()) return false;
  if (v > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// A finite floating-point number (strtod syntax, no surrounding text).
inline bool ParseDouble(const std::string& val, double* out) {
  if (val.empty() || std::isspace(static_cast<unsigned char>(val[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(val.c_str(), &end);
  if (errno != 0 || end != val.c_str() + val.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace smdb

#endif  // SMDB_COMMON_PARSE_H_
