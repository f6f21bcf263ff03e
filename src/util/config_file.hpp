// Key/value configuration files.
//
// Format: one `key = value` per line and `#` comments. This is enough to
// describe a full simulation scenario (Table 1 of the paper ships as
// `examples/scenarios/table1.cfg`) without pulling in a JSON dependency.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace chicsim::util {

class ConfigFile {
 public:
  /// Parse from text. Throws SimError on malformed lines.
  [[nodiscard]] static ConfigFile parse(const std::string& text);

  /// Load from a file path. Throws SimError when unreadable.
  [[nodiscard]] static ConfigFile load(const std::string& path);

  /// Raw string lookup (keys are case-insensitive, stored lower-cased).
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Every key, sorted.
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace chicsim::util
