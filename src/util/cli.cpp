#include "util/cli.hpp"

#include <cstdio>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::util {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_option(const std::string& name, const std::string& fallback,
                           const std::string& help) {
  CHICSIM_ASSERT_MSG(find(name) == nullptr, "duplicate option --" + name);
  options_.push_back(Option{name, fallback, fallback, help, /*is_flag=*/false});
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  CHICSIM_ASSERT_MSG(find(name) == nullptr, "duplicate flag --" + name);
  options_.push_back(Option{name, "false", "false", help, /*is_flag=*/true});
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (!starts_with(arg, "--")) {
      throw SimError("cli: unexpected positional argument: " + arg);
    }
    std::string body = arg.substr(2);
    std::string name = body;
    std::optional<std::string> inline_value;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      inline_value = body.substr(eq + 1);
    }
    Option* opt = find(name);
    if (opt == nullptr) throw SimError("cli: unknown option --" + name);
    if (opt->is_flag) {
      if (inline_value) {
        auto b = parse_bool(*inline_value);
        if (!b) throw SimError("cli: --" + name + " expects a boolean");
        opt->value = *b ? "true" : "false";
      } else {
        opt->value = "true";
      }
    } else {
      if (inline_value) {
        opt->value = *inline_value;
      } else {
        if (i + 1 >= argc) throw SimError("cli: --" + name + " expects a value");
        opt->value = argv[++i];
      }
    }
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  const Option* opt = find(name);
  CHICSIM_ASSERT_MSG(opt != nullptr, "cli: undeclared option --" + name);
  return opt->value;
}

long long CliParser::get_int(const std::string& name) const {
  auto v = parse_int(get(name));
  if (!v) throw SimError("cli: --" + name + " is not an integer");
  return *v;
}

double CliParser::get_double(const std::string& name) const {
  auto v = parse_double(get(name));
  if (!v) throw SimError("cli: --" + name + " is not a number");
  return *v;
}

bool CliParser::get_flag(const std::string& name) const {
  auto v = parse_bool(get(name));
  if (!v) throw SimError("cli: --" + name + " is not a boolean");
  return *v;
}

std::string CliParser::usage() const {
  std::string out = program_ + " — " + description_ + "\n\noptions:\n";
  for (const auto& opt : options_) {
    out += "  --" + opt.name;
    if (!opt.is_flag) out += "=<value>";
    out += "\n      " + opt.help;
    if (!opt.is_flag) out += " (default: " + opt.fallback + ")";
    out += "\n";
  }
  out += "  --help\n      show this message\n";
  return out;
}

const CliParser::Option* CliParser::find(const std::string& name) const {
  for (const auto& opt : options_) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

CliParser::Option* CliParser::find(const std::string& name) {
  for (auto& opt : options_) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

}  // namespace chicsim::util
