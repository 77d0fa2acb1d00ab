// Round-selector interface: the pluggable "line 3" of ASTI (Alg. 1).
//
// Every adaptive policy in this library (TRIM, TRIM-B, AdaptIM, degree
// heuristic, oracle greedy) implements RoundSelector; the ASTI driver is
// agnostic to which one it runs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/bit_vector.h"
#include "util/rng.h"

namespace asti {

/// The residual graph G_i handed to a selector each round.
struct ResidualView {
  /// Activation mask over the original graph; nullptr means nothing active.
  const BitVector* active = nullptr;
  /// Residual node list V_i (every entry inactive). Never empty.
  const std::vector<NodeId>* inactive_nodes = nullptr;
  /// Shortfall η_i = η − (n − n_i); always ≥ 1 while ASTI runs.
  NodeId shortfall = 0;

  NodeId NumInactive() const { return static_cast<NodeId>(inactive_nodes->size()); }
};

/// How a round's batch was answered.
enum class RoundAnswer : uint8_t {
  kUncertified,  // the selector reports no certificate (heuristics, baselines)
  kOneHop,       // TRIM's one-hop certificate, with no samples (core/trim.h)
  kCertified,    // certified at rung `iterations` of the doubling ladder
  kFellBack,     // rung T = `iterations` reached without certifying
  kMemoHit,      // round-1 pick served from the sampler cache's memo
};

/// Short name for tables: "-", "one-hop", "certified", "fell-back", "memo".
inline const char* RoundAnswerName(RoundAnswer answer) {
  switch (answer) {
    case RoundAnswer::kOneHop: return "one-hop";
    case RoundAnswer::kCertified: return "certified";
    case RoundAnswer::kFellBack: return "fell-back";
    case RoundAnswer::kMemoHit: return "memo";
    case RoundAnswer::kUncertified: break;
  }
  return "-";
}

/// What a selector reports back for one round.
struct SelectionResult {
  /// Chosen batch (size 1 for TRIM, b for TRIM-B).
  std::vector<NodeId> seeds;
  /// Selector's estimate of Δ(seeds | S_{i-1}) — η_i·Λ(S)/|R| for
  /// sampling-based selectors, 0 if the selector does not estimate.
  double estimated_marginal_gain = 0.0;
  /// Reverse-reachable sets (or MC trials) generated this round.
  size_t num_samples = 0;
  /// Doubling iterations consumed (sampling-based selectors): the rung
  /// count, also on a memo hit; 0 for a one-hop certificate.
  size_t iterations = 0;
  RoundAnswer answer = RoundAnswer::kUncertified;
};

/// Per-round seed selection strategy.
class RoundSelector {
 public:
  virtual ~RoundSelector() = default;

  /// Selects the next batch on the residual graph. Must return at least one
  /// seed, all drawn from view.inactive_nodes.
  virtual SelectionResult SelectBatch(const ResidualView& view, Rng& rng) = 0;

  /// Human-readable name for tables ("ASTI", "ASTI-8", "AdaptIM", ...).
  virtual const char* Name() const = 0;
};

}  // namespace asti
