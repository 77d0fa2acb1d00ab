#include "benchutil/cli.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "api/request.h"
#include "util/check.h"

namespace asti {

namespace {

// The whole of `value` as a T, or exit 2 naming the flag and the token: a
// typo must not run the default, and a numeric prefix ("4x", "1e1" for an
// integer) must not run another value.
template <typename T>
T ParseWholeToken(const std::string& key, const std::string& value) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error != std::errc() || stop != end) {
    std::cerr << "bad value for --" << key << ": '" << value << "'\n";
    std::exit(2);
  }
  return parsed;
}

}  // namespace

CommandLine::CommandLine(int argc, const char* const* argv,
                         std::vector<std::string> accepted)
    : accepted_(std::move(accepted)) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      std::cerr << "unexpected argument '" << token << "'\n";
      std::exit(2);
    }
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
  for (const auto& [key, value] : values_) {
    if (std::find(accepted_.begin(), accepted_.end(), key) != accepted_.end()) continue;
    std::cerr << "unknown flag --" << key << "; accepted:";
    for (const std::string& flag : accepted_) std::cerr << " --" << flag;
    std::cerr << "\n";
    std::exit(2);
  }
}

const std::string* CommandLine::Find(const std::string& key) const {
  ASM_CHECK(std::find(accepted_.begin(), accepted_.end(), key) != accepted_.end())
      << "flag --" << key << " is read but not in the binary's accepted list";
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool CommandLine::Has(const std::string& key) const { return Find(key) != nullptr; }

std::string CommandLine::GetString(const std::string& key,
                                   const std::string& fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : *value;
}

double CommandLine::GetDouble(const std::string& key, double fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : ParseWholeToken<double>(key, *value);
}

int64_t CommandLine::GetInt(const std::string& key, int64_t fallback) const {
  const std::string* value = Find(key);
  return value == nullptr ? fallback : ParseWholeToken<int64_t>(key, *value);
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
