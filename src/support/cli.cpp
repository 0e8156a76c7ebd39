#include "support/cli.hpp"

#include <algorithm>
#include <cstdlib>

namespace rsketch {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    // insert_or_assign with pre-built strings keeps basic_string::assign
    // (char*) out of the inline path; GCC 12 falsely flags that path with
    // -Wrestrict under -O2 (PR105329), which -Werror would make fatal.
    const std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      kv_.insert_or_assign(body.substr(0, eq), body.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_.insert_or_assign(body, std::string(argv[++i]));
    } else {
      kv_.insert_or_assign(body, std::string("1"));  // bare boolean flag
    }
  }
}

bool CliArgs::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string CliArgs::unknown_flag(
    const std::vector<std::string>& allowed) const {
  for (const auto& kv : kv_) {
    if (std::find(allowed.begin(), allowed.end(), kv.first) == allowed.end()) {
      return kv.first;
    }
  }
  return "";
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

long long CliArgs::get_int(const std::string& key, long long fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

}  // namespace rsketch
