#ifndef ALT_SUPPORT_STRING_UTIL_H_
#define ALT_SUPPORT_STRING_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace alt {

// Joins container elements with a separator, using operator<< on elements.
template <typename Container>
std::string Join(const Container& c, const std::string& sep) {
  std::ostringstream oss;
  bool first = true;
  for (const auto& e : c) {
    if (!first) {
      oss << sep;
    }
    oss << e;
    first = false;
  }
  return oss.str();
}

std::vector<std::string> Split(const std::string& s, char sep);

// "1.23 ms" / "456 us" style human-friendly duration from microseconds.
std::string FormatMicros(double us);

// Number fields of the on-disk text formats (tuning database, artifacts,
// kernel-cache keys). Their bytes are part of those formats.
// "%.17g": round-trips every double bit-exactly through strtod.
std::string FormatDouble(double v);
// "%016" PRIx64: 16 lowercase hex digits, zero-padded.
std::string FormatU64Hex(uint64_t v);

// Strict readers of those fields: each accepts exactly the form its writer
// produces and consumes the whole field, so trailing text, signs, prefixes,
// or whitespace return InvalidArgument.
// Exactly 16 lowercase hex digits (FormatU64Hex).
StatusOr<uint64_t> ParseU64Hex(std::string_view s);
// Unsigned decimal digits only, within uint64_t (std::to_string).
StatusOr<uint64_t> ParseU64Dec(std::string_view s);
// A FormatDouble field: sign, digits, point and exponent, or inf / nan.
StatusOr<double> ParseDouble(std::string_view s);
// Strips `prefix` from the front of `s` when present; `s` is untouched
// otherwise.
bool ConsumePrefix(std::string& s, std::string_view prefix);

// All positive divisors of n, ascending.
std::vector<int64_t> Divisors(int64_t n);

// Checked numeric parsing for untrusted text (artifacts, CLI input).
// Unlike std::stoll these never throw: empty strings, trailing garbage, and
// out-of-range values all return InvalidArgument.
StatusOr<int64_t> ParseInt64(const std::string& s);
StatusOr<int> ParseInt32(const std::string& s);

}  // namespace alt

#endif  // ALT_SUPPORT_STRING_UTIL_H_
