// ATEUC baseline — non-adaptive seed minimization (Han et al.,
// arXiv:1711.10665; the state of the art the paper compares against).
//
// Re-implemented from the description in §5/§6.2 of the ASTI paper: using
// single-root RR-sets over the *full* graph, greedily grow a seed set and
// maintain two candidates —
//   S_u: the shortest greedy prefix whose high-probability *lower* bound
//        on E[I(S)] reaches η (certified feasible);
//   S_l: a lower bound on the optimal seed count, derived from the largest
//        prefix size j whose optimistic bound (greedy coverage inflated by
//        1/(1 − 1/e), then upper-bounded) still misses η — no size-j set
//        can reach η, so OPT > j.
// When |S_u| ≤ 2·|S_l| the candidate S_u is returned; otherwise the RR
// collection is doubled and the process repeats. Because our martingale
// bounds are looser than Han et al.'s (no per-prefix tuning), the 2× gap
// condition can stay unmet on small graphs; a stabilization rule
// (S_u unchanged across a doubling once the collection is large) bounds
// the work in that regime without changing the certified feasibility of
// the returned set.
//
// Being non-adaptive, the returned set satisfies E[I(S)] ≥ η yet can
// under- or over-shoot on individual realizations — the failure mode
// Figure 8 and Table 3's N/A entries demonstrate.

#pragma once

#include <vector>

#include "diffusion/model.h"
#include "graph/graph.h"
#include "obs/span.h"
#include "sampling/sampler_cache.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace asti {

class ThreadPool;

/// Tuning knobs for ATEUC.
struct AteucOptions {
  double epsilon = 0.1;           // confidence parameter for the bounds
  size_t initial_samples = 256;   // starting RR collection size
  size_t max_doublings = 14;      // hard cap on collection growth
  size_t stable_after = 8192;     // enable the stabilization stop from here
  /// Spread target multiplier: S_u is the first greedy prefix whose spread
  /// estimate reaches target_slack·η. Han et al. certify E[I(S)] ≥ η with
  /// high probability, which in practice lands E[I(S)] slightly above η —
  /// this models that margin.
  double target_slack = 1.2;
  /// Shared external pool; semantics as TrimOptions::pool.
  ThreadPool* pool = nullptr;
  /// Cooperative stop condition; polled per doubling round, generation
  /// stride, and greedy pick. A fired scope makes RunAteuc return its
  /// partial result promptly — callers observing the scope must discard
  /// it (SeedMinEngine returns Cancelled/DeadlineExceeded instead).
  const CancelScope* cancel = nullptr;
  /// Per-request phase profile; semantics as TrimOptions::profile.
  RequestProfile* profile = nullptr;
  /// Shared sampler cache; when set, EVERY doubling round reads the
  /// (kRr, model) entry's sealed prefix at the exact ladder length
  /// initial_samples·2^round instead of growing an owned collection —
  /// ATEUC samples the full graph throughout, so its entire run is
  /// cacheable — and the run consumes zero draws from `rng`.
  SamplerCache* sampler_cache = nullptr;
};

/// Result of the one-shot (non-adaptive) selection.
struct AteucResult {
  std::vector<NodeId> seeds;       // S_u, greedy order
  size_t optimal_lower_bound = 0;  // |S_l|
  double estimated_spread = 0.0;   // n·Λ(S_u)/|R|
  size_t num_samples = 0;          // final |R|
  size_t doublings = 0;
};

/// Runs ATEUC on the full graph for threshold eta.
AteucResult RunAteuc(const DirectedGraph& graph, DiffusionModel model, NodeId eta,
                     const AteucOptions& options, Rng& rng);

}  // namespace asti
