#include "util/string_util.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace chicsim::util {

namespace {
bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }
}  // namespace

std::string trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<long long> parse_int(std::string_view s) {
  std::string t = trim(s);
  if (t.empty()) return std::nullopt;
  long long v = 0;
  auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec != std::errc{} || ptr != t.data() + t.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view s) {
  std::string t = trim(s);
  if (t.empty()) return std::nullopt;
  // std::from_chars for double is available in libstdc++ 11+, but strtod via
  // a bounded copy is simpler and locale-stable enough for config files.
  char* end = nullptr;
  std::string buf(t);
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::optional<bool> parse_bool(std::string_view s) {
  std::string t = to_lower(trim(s));
  if (t == "1" || t == "true" || t == "yes" || t == "on") return true;
  if (t == "0" || t == "false" || t == "no" || t == "off") return false;
  return std::nullopt;
}

std::string join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string format_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return std::string(buf);
}

std::string format_shortest(double v) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}


}  // namespace chicsim::util
