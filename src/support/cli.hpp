// Minimal command-line flag parser for the example executables and bench
// binaries (`--key=value` / `--key value` / boolean `--flag`).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace rsketch {

/// Parses `--key=value`, `--key value`, and bare `--flag` arguments.
/// Positional arguments are collected in order.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// The first flag (without its "--") that is not in `allowed`, or ""
  /// when every flag given is allowed.
  std::string unknown_flag(const std::vector<std::string>& allowed) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace rsketch
