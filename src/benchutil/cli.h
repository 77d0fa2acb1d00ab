// Minimal flag parsing for bench/example binaries, plus environment
// overrides shared by the whole harness (ASM_BENCH_SCALE,
// ASM_BENCH_REALIZATIONS, ASM_BENCH_THREADS) so
// `for b in build/bench/*; do $b; done` can be globally scaled without
// editing code.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace asti {

struct SolveRequest;  // api/request.h; full include only in cli.cc

/// Parsed --key=value / --key value / --flag command-line options.
/// `accepted` names every flag the binary reads (without the dashes). Each
/// of these prints what was wrong to stderr and exits with status 2, so a
/// typo never runs a default or another configuration: a flag outside
/// `accepted` (named with the accepted list), a token that is neither a
/// flag nor a flag's value ("unexpected argument"), and a GetInt/GetDouble
/// value that is not wholly a number of that type ("bad value for"; "4x"
/// and, for GetInt, "1e1" are refused rather than read as 4 and 1).
/// Reading a key outside `accepted` is a programming error (ASM_CHECK).
class CommandLine {
 public:
  CommandLine(int argc, const char* const* argv, std::vector<std::string> accepted);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key, const std::string& fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;

 private:
  // The parsed value of an accepted `key`, or null when it was not given.
  const std::string* Find(const std::string& key) const;

  std::vector<std::string> accepted_;
  std::map<std::string, std::string> values_;
};

/// Environment variable as double, or fallback when unset/invalid.
double EnvDouble(const char* name, double fallback);

/// Environment variable as non-negative integer, or fallback.
size_t EnvSize(const char* name, size_t fallback);

/// Sampling worker count for a bench binary: ASM_BENCH_THREADS env wins,
/// then the --threads flag, then `fallback` (1 = no pool, 0 = all
/// hardware threads).
size_t NumThreadsOverride(const CommandLine& cli, size_t fallback = 1);

/// Applies the request-level standard overrides to a SolveRequest in
/// place: --epsilon, --seed, and --realizations (env
/// ASM_BENCH_REALIZATIONS wins over the flag). One struct carries the
/// knobs every harness used to re-thread per algorithm.
void ApplyRequestOverrides(const CommandLine& cli, SolveRequest& request);

/// Parses a comma-separated count list ("1,2,4,8") for sweep flags like
/// --threads. Crashes with a message naming `flag` on non-numeric tokens
/// or an empty list.
std::vector<size_t> ParseSizeList(const std::string& spec, const char* flag);

}  // namespace asti
