// Command-line argument parsing for the bench and example binaries.
//
// Supports `--key=value`, `--key value`, and boolean `--flag` forms. Each
// binary declares its options up front so that `--help` output is generated
// consistently and unknown options fail fast.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace chicsim::util {

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Declare an option that takes a value; `fallback` is its default.
  void add_option(const std::string& name, const std::string& fallback,
                  const std::string& help);

  /// Declare a boolean flag (defaults to false).
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Returns false (after printing usage) when --help was given.
  /// Throws SimError on unknown options or missing values.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  struct Option {
    std::string name;
    std::string value;
    std::string fallback;
    std::string help;
    bool is_flag = false;
  };

  [[nodiscard]] const Option* find(const std::string& name) const;
  [[nodiscard]] Option* find(const std::string& name);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
};

}  // namespace chicsim::util
