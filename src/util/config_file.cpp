#include "util/config_file.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::util {

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::string t = trim(line);
    if (t.empty()) continue;
    auto eq = t.find('=');
    if (eq == std::string::npos) {
      throw SimError("config: expected key = value at line " + std::to_string(lineno) + ": " +
                     t);
    }
    std::string key = to_lower(trim(t.substr(0, eq)));
    if (key.empty()) {
      throw SimError("config: empty key at line " + std::to_string(lineno));
    }
    cfg.values_[key] = trim(t.substr(eq + 1));
  }
  return cfg;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SimError("config: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::optional<std::string> ConfigFile::get(const std::string& key) const {
  auto it = values_.find(to_lower(key));
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> ConfigFile::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace chicsim::util
