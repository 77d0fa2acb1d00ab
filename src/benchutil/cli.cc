#include "benchutil/cli.h"

#include <cstdlib>
#include <sstream>
#include <string>

#include "api/request.h"
#include "util/check.h"

namespace asti {

CommandLine::CommandLine(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;
    const std::string body = token.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_.insert_or_assign(body.substr(0, eq), body.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_.insert_or_assign(body, std::string(argv[++i]));
    } else {
      values_.insert_or_assign(body, std::string("1"));
    }
  }
}

bool CommandLine::Has(const std::string& key) const { return values_.count(key) > 0; }

std::string CommandLine::GetString(const std::string& key,
                                   const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double CommandLine::GetDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return fallback;
  }
}

int64_t CommandLine::GetInt(const std::string& key, int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (...) {
    return fallback;
  }
}

double EnvDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  try {
    return std::stod(raw);
  } catch (...) {
    return fallback;
  }
}

size_t NumThreadsOverride(const CommandLine& cli, size_t fallback) {
  return EnvSize("ASM_BENCH_THREADS",
                 static_cast<size_t>(cli.GetInt("threads",
                                                static_cast<int64_t>(fallback))));
}

std::vector<size_t> ParseSizeList(const std::string& spec, const char* flag) {
  std::vector<size_t> counts;
  std::stringstream stream(spec);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    ASM_CHECK(token.find_first_not_of("0123456789") == std::string::npos)
        << flag << " expects a comma-separated list of counts, got '" << token << "'";
    size_t count = 0;
    try {
      count = static_cast<size_t>(std::stoull(token));
    } catch (...) {
      ASM_CHECK(false) << flag << " count '" << token << "' out of range";
    }
    counts.push_back(count);
  }
  ASM_CHECK(!counts.empty()) << "empty " << flag << " list";
  return counts;
}

void ApplyRequestOverrides(const CommandLine& cli, SolveRequest& request) {
  request.epsilon = cli.GetDouble("epsilon", request.epsilon);
  request.seed = static_cast<uint64_t>(
      cli.GetInt("seed", static_cast<int64_t>(request.seed)));
  request.realizations = EnvSize(
      "ASM_BENCH_REALIZATIONS",
      static_cast<size_t>(cli.GetInt(
          "realizations", static_cast<int64_t>(request.realizations))));
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  try {
    const long long value = std::stoll(raw);
    return value < 0 ? fallback : static_cast<size_t>(value);
  } catch (...) {
    return fallback;
  }
}

}  // namespace asti
