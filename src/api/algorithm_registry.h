// Algorithm registry — the single `AlgorithmId -> selector` construction
// point of the library.
//
// Every harness used to carry its own construction switch (the experiment
// runner, asm_tool's name parser, the examples); the registry subsumes
// them: `AlgorithmRegistry::Make(id, ctx)` builds a RoundSelector from a
// uniform context, `Parse` maps user-facing names ("ASTI-4", "AdaptIM")
// to ids, and `List` enumerates everything with its paper provenance for
// `asm_tool --list-algorithms` style surfaces. Non-adaptive algorithms
// (ATEUC, Bisection) have no RoundSelector; Make reports that via Status
// and the SeedMinEngine serves them through its one-shot path.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/selector.h"
#include "diffusion/model.h"
#include "obs/span.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace asti {

class DirectedGraph;
class SamplerCache;
class ThreadPool;

/// Algorithms of the paper's evaluation (§6.1) plus the extra baselines.
enum class AlgorithmId {
  kAsti,      // ASTI = TRIM at b = 1 (Alg. 2)
  kAsti2,     // ASTI-2 = TRIM at b = 2 (TRIM-B, Alg. 3)
  kAsti4,     // ASTI-4 = TRIM at b = 4
  kAsti8,     // ASTI-8 = TRIM at b = 8
  kAdaptIm,   // adaptive IM baseline
  kAteuc,     // non-adaptive baseline
  kDegree,    // residual-degree heuristic (extra)
  kOracle,    // Monte-Carlo oracle greedy (tiny graphs only)
  kBisection, // non-adaptive bisection-on-k transformation (extra)
};

/// Catalog entry for one algorithm — the single place per-algorithm
/// metadata lives (Validate, Make and the batch-size rules derive from it).
struct AlgorithmInfo {
  AlgorithmId id;
  const char* name;        // display name matching the paper's legends
  const char* paper_name;  // provenance ("TRIM, Alg. 2", "Han et al. ...")
  bool adaptive;           // false = one-shot selection (ATEUC, Bisection)
  /// Default TRIM-family batch b (1 for ASTI, 2/4/8 for ASTI-b); 0 marks
  /// a non-TRIM algorithm, for which batch_size overrides are invalid.
  NodeId default_batch = 0;
};

/// A parsed `--algorithm` value: the id plus an optional batch-size
/// override (0 = the id's default) so "ASTI-16" is expressible even though
/// only b ∈ {2, 4, 8} have dedicated ids.
struct AlgorithmSpec {
  AlgorithmId id = AlgorithmId::kAsti;
  NodeId batch_size = 0;
};

/// Everything Make needs to build any selector: the per-request knobs that
/// used to be re-threaded through per-algorithm Options structs.
struct AlgorithmContext {
  const DirectedGraph* graph = nullptr;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  double epsilon = 0.5;      // sampling slack ε for TRIM (any b) and AdaptIM
  NodeId batch_size = 0;     // 0 = the algorithm id's default batch
  /// Shared sampling/coverage pool (not owned; null = run on the calling
  /// thread). Results are identical at every pool size; see
  /// TrimOptions::pool.
  ThreadPool* pool = nullptr;
  /// Cooperative stop condition threaded into the selector's sampling and
  /// coverage loops (not owned; must outlive the selector). See
  /// TrimOptions::cancel for the unwind contract.
  const CancelScope* cancel = nullptr;
  /// Per-request phase profile threaded into the selector's sampling /
  /// coverage / certify paths (not owned; may be null). Purely passive —
  /// see TrimOptions::profile.
  RequestProfile* profile = nullptr;
  /// Shared sampler cache for full-residual (round-1) collections (not
  /// owned; may be null = fully request-owned sampling). See
  /// TrimOptions::sampler_cache and sampling/sampler_cache.h.
  SamplerCache* sampler_cache = nullptr;
};

class AlgorithmRegistry {
 public:
  /// Display name matching the paper's legends ("ASTI", "AdaptIM", ...).
  static const char* Name(AlgorithmId id);

  /// Full catalog, in AlgorithmId order.
  static const std::vector<AlgorithmInfo>& List();

  /// Catalog entry for an id, or nullptr for ids outside the enum — the
  /// one known-algorithm check (SeedMinEngine::Validate uses it).
  static const AlgorithmInfo* Find(AlgorithmId id);

  /// Parses a user-facing name ("ASTI", "ASTI-16", "AdaptIM", "ATEUC",
  /// "Degree", "Oracle", "Bisection"); InvalidArgument on unknown names.
  static StatusOr<AlgorithmSpec> Parse(const std::string& name);

  /// Builds the round selector for an adaptive algorithm. Returns
  /// InvalidArgument for unknown ids and for the non-adaptive algorithms
  /// (kAteuc, kBisection), which are served by SeedMinEngine directly.
  static StatusOr<std::unique_ptr<RoundSelector>> Make(AlgorithmId id,
                                                       const AlgorithmContext& ctx);
};

/// Legacy free-function spelling, kept for the experiment/bench harnesses.
inline const char* AlgorithmName(AlgorithmId id) { return AlgorithmRegistry::Name(id); }

}  // namespace asti
