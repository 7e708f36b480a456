#include "util/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <utility>

namespace oms::util {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg.erase(0, 2);
    // A bare flag reads as "1".
    const auto eq = arg.find('=');
    std::string value = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    arg.resize(std::min(eq, arg.size()));
    values_.insert_or_assign(std::move(arg), std::move(value));
  }
}

bool Cli::has(const std::string& name) const {
  return values_.contains(name);
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Cli::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

long Cli::get(const std::string& name, long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtol(it->second.c_str(), nullptr, 10);
}

double Cli::get_scaled(const std::string& name, double fallback) const {
  if (has(name)) return get(name, fallback);
  std::string env = "OMSHD_" + name;
  std::transform(env.begin(), env.end(), env.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  if (const char* v = std::getenv(env.c_str())) {
    return std::strtod(v, nullptr);
  }
  return fallback;
}

}  // namespace oms::util
