// Small string helpers used by the config, CLI and trace parsers and JSON writers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace chicsim::util {

/// Strip leading and trailing whitespace (space, tab, CR, LF).
[[nodiscard]] std::string trim(std::string_view s);

/// Split `s` on `sep`, trimming each piece; empty pieces are kept so that
/// positional formats (CSV) round-trip.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// ASCII lower-casing (config keys and algorithm names are case-insensitive).
[[nodiscard]] std::string to_lower(std::string_view s);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parse helpers returning std::nullopt on malformed input instead of
/// throwing, so callers can produce contextual error messages.
[[nodiscard]] std::optional<long long> parse_int(std::string_view s);
[[nodiscard]] std::optional<double> parse_double(std::string_view s);
[[nodiscard]] std::optional<bool> parse_bool(std::string_view s);

/// Join pieces with `sep` ("a,b,c" style).
[[nodiscard]] std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// Format a double with fixed precision (used by table/CSV writers).
[[nodiscard]] std::string format_fixed(double v, int precision);

/// Shortest text that parses back to exactly `v` (std::to_chars), e.g.
/// "0.1", "3600", "1e+300": config dumps and traces replay bit for bit.
[[nodiscard]] std::string format_shortest(double v);

/// Escape a string for embedding in a JSON document (quotes not included).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace chicsim::util
