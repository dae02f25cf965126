#include "dcnas/common/strings.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "dcnas/common/error.hpp"

namespace dcnas {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n'))
    --e;
  return std::string(s.substr(b, e - b));
}

std::string format_fixed(double value, int decimals) {
  DCNAS_CHECK(decimals >= 0 && decimals <= 12, "decimals out of range");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return std::string(buf);
}

std::string pad(std::string s, std::size_t width, bool right) {
  if (s.size() >= width) return s;
  const std::string spaces(width - s.size(), ' ');
  return right ? spaces + s : s + spaces;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {
[[noreturn]] void throw_parse_failure(const char* kind, std::string_view s,
                                      std::string_view context) {
  throw InvalidArgument("cannot parse " + std::string(kind) + " from '" +
                        std::string(s) + "' (" + std::string(context) + ")");
}
}  // namespace

double parse_double(std::string_view s, std::string_view context) {
  double value = 0.0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  const auto result = std::from_chars(begin, end, value);
  if (result.ec != std::errc{} || result.ptr != end || s.empty()) {
    throw_parse_failure("double", s, context);
  }
  return value;
}

long long parse_int(std::string_view s, std::string_view context) {
  long long value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  const auto result = std::from_chars(begin, end, value);
  if (result.ec != std::errc{} || result.ptr != end || s.empty()) {
    throw_parse_failure("integer", s, context);
  }
  return value;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

}  // namespace dcnas
