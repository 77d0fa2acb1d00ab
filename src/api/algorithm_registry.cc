#include "api/algorithm_registry.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "baselines/adaptim.h"
#include "baselines/degree_adaptive.h"
#include "baselines/oracle_greedy.h"
#include "core/trim.h"
#include "graph/graph.h"
#include "parallel/thread_pool.h"

namespace asti {

const std::vector<AlgorithmInfo>& AlgorithmRegistry::List() {
  static const std::vector<AlgorithmInfo> catalog = {
      {AlgorithmId::kAsti, "ASTI", "TRIM — truncated influence maximization (Alg. 2)",
       true, 1},
      {AlgorithmId::kAsti2, "ASTI-2", "TRIM-B, batch b = 2 (Alg. 3)", true, 2},
      {AlgorithmId::kAsti4, "ASTI-4", "TRIM-B, batch b = 4 (Alg. 3)", true, 4},
      {AlgorithmId::kAsti8, "ASTI-8", "TRIM-B, batch b = 8 (Alg. 3)", true, 8},
      {AlgorithmId::kAdaptIm, "AdaptIM",
       "adaptive IM baseline (Han et al., PVLDB 2018)", true},
      {AlgorithmId::kAteuc, "ATEUC",
       "non-adaptive seed minimization (Han et al., arXiv:1711.10665)", false},
      {AlgorithmId::kDegree, "DegreeAdaptive",
       "residual highest-degree heuristic (extra baseline)", true},
      {AlgorithmId::kOracle, "OracleGreedy",
       "Golovin-Krause Monte-Carlo greedy oracle (§2.4; tiny graphs)", true},
      {AlgorithmId::kBisection, "Bisection",
       "bisection-on-k transformation (Goyal et al. 2013, §2.4)", false},
  };
  return catalog;
}

const AlgorithmInfo* AlgorithmRegistry::Find(AlgorithmId id) {
  for (const AlgorithmInfo& info : List()) {
    if (info.id == id) return &info;
  }
  return nullptr;
}

const char* AlgorithmRegistry::Name(AlgorithmId id) {
  const AlgorithmInfo* info = Find(id);
  return info != nullptr ? info->name : "?";
}

StatusOr<AlgorithmSpec> AlgorithmRegistry::Parse(const std::string& name) {
  for (const AlgorithmInfo& info : List()) {
    if (name == info.name) return AlgorithmSpec{info.id, 0};
  }
  // "Degree" / "Oracle" shorthands used by the CLI surfaces.
  if (name == "Degree") return AlgorithmSpec{AlgorithmId::kDegree, 0};
  if (name == "Oracle") return AlgorithmSpec{AlgorithmId::kOracle, 0};
  // "ASTI-b" for arbitrary b: canonical b has a dedicated id above; other
  // b ride on kAsti with a batch-size override (b = 1 IS kAsti). The
  // suffix must be a plain positive integer — trailing garbage ("ASTI-4x",
  // "ASTI-1.5") is rejected, not silently truncated.
  if (name.rfind("ASTI-", 0) == 0) {
    const std::string suffix = name.substr(5);
    if (suffix.empty() || suffix.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("bad batch size in '" + name + "'");
    }
    errno = 0;
    const unsigned long long batch = std::strtoull(suffix.c_str(), nullptr, 10);
    if (errno == ERANGE || batch < 1 ||
        batch > std::numeric_limits<NodeId>::max()) {
      return Status::InvalidArgument("bad batch size in '" + name + "'");
    }
    return AlgorithmSpec{AlgorithmId::kAsti,
                         batch == 1 ? NodeId{0} : static_cast<NodeId>(batch)};
  }
  std::string known;
  for (const AlgorithmInfo& info : List()) {
    known += (known.empty() ? "" : ", ") + std::string(info.name);
  }
  return Status::InvalidArgument("unknown algorithm '" + name + "' (known: " + known +
                                 ", ASTI-b for any b >= 1)");
}

StatusOr<std::unique_ptr<RoundSelector>> AlgorithmRegistry::Make(
    AlgorithmId id, const AlgorithmContext& ctx) {
  ASM_CHECK(ctx.graph != nullptr) << "AlgorithmContext.graph unset";
  const DirectedGraph& graph = *ctx.graph;
  switch (id) {
    case AlgorithmId::kAsti:
    case AlgorithmId::kAsti2:
    case AlgorithmId::kAsti4:
    case AlgorithmId::kAsti8: {
      TrimOptions options;
      options.epsilon = ctx.epsilon;
      options.batch_size = ctx.batch_size != 0 ? ctx.batch_size : Find(id)->default_batch;
      options.rounding = ctx.rounding;
      options.pool = ctx.pool;
      options.cancel = ctx.cancel;
      options.profile = ctx.profile;
      options.sampler_cache = ctx.sampler_cache;
      return std::unique_ptr<RoundSelector>(
          std::make_unique<Trim>(graph, ctx.model, options));
    }
    case AlgorithmId::kAdaptIm: {
      AdaptImOptions options;
      options.epsilon = ctx.epsilon;
      options.pool = ctx.pool;
      options.cancel = ctx.cancel;
      options.profile = ctx.profile;
      options.sampler_cache = ctx.sampler_cache;
      return std::unique_ptr<RoundSelector>(
          std::make_unique<AdaptIm>(graph, ctx.model, options));
    }
    case AlgorithmId::kDegree:
      return std::unique_ptr<RoundSelector>(std::make_unique<DegreeAdaptive>(graph));
    case AlgorithmId::kOracle: {
      OracleGreedyOptions options;
      options.trials_per_node = ctx.oracle_trials;
      return std::unique_ptr<RoundSelector>(
          std::make_unique<OracleGreedy>(graph, ctx.model, options));
    }
    case AlgorithmId::kAteuc:
    case AlgorithmId::kBisection:
      return Status::InvalidArgument(
          std::string(Name(id)) +
          " is non-adaptive (no RoundSelector); use SeedMinEngine::Solve");
  }
  return Status::InvalidArgument("unknown algorithm id " +
                                 std::to_string(static_cast<int>(id)));
}

}  // namespace asti
