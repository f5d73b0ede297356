#include "src/support/string_util.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/support/status.h"

namespace alt {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string FormatMicros(double us) {
  char buf[64];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.3f s", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", us);
  }
  return buf;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatU64Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

StatusOr<uint64_t> ParseU64Hex(std::string_view s) {
  if (s.size() != 16) {
    return Status::InvalidArgument("bad hex field: '" + std::string(s) + "'");
  }
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return Status::InvalidArgument("bad hex field: '" + std::string(s) + "'");
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  return v;
}

StatusOr<uint64_t> ParseU64Dec(std::string_view s) {
  if (s.empty()) {
    return Status::InvalidArgument("empty integer field");
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad integer field: '" + std::string(s) + "'");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return Status::InvalidArgument("integer out of range: '" + std::string(s) + "'");
    }
    v = v * 10 + digit;
  }
  return v;
}

StatusOr<double> ParseDouble(std::string_view s) {
  // strtod also takes leading whitespace, hex floats and "infinity"; "%.17g"
  // never writes those.
  const bool special = s == "inf" || s == "-inf" || s == "nan" || s == "-nan";
  if (s.empty() || (!special && s.find_first_not_of("0123456789+-.e") != s.npos)) {
    return Status::InvalidArgument("bad float field: '" + std::string(s) + "'");
  }
  const std::string text(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  // ERANGE with a subnormal result is a written value; with inf or 0 it is
  // a number no double could have printed.
  if (end != text.c_str() + text.size() ||
      (errno == ERANGE && (std::isinf(v) || v == 0.0))) {
    return Status::InvalidArgument("bad float field: '" + text + "'");
  }
  return v;
}

bool ConsumePrefix(std::string& s, std::string_view prefix) {
  if (s.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  s.erase(0, prefix.size());
  return true;
}

StatusOr<int64_t> ParseInt64(const std::string& s) {
  if (s.empty()) {
    return Status::InvalidArgument("empty integer literal");
  }
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) {
    return Status::InvalidArgument("not an integer: '" + s + "'");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer out of range: '" + s + "'");
  }
  return static_cast<int64_t>(v);
}

StatusOr<int> ParseInt32(const std::string& s) {
  auto v = ParseInt64(s);
  if (!v.ok()) {
    return v.status();
  }
  if (*v < std::numeric_limits<int>::min() || *v > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("integer out of range: '" + s + "'");
  }
  return static_cast<int>(*v);
}

std::vector<int64_t> Divisors(int64_t n) {
  ALT_CHECK(n > 0);
  std::vector<int64_t> out;
  for (int64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) {
      out.push_back(d);
      if (d != n / d) {
        out.push_back(n / d);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace alt
