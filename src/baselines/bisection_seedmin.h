// Bisection seed minimization — the classical non-adaptive transformation
// (Goyal et al. 2013, discussed in §2.4 of the ASTI paper).
//
// Existing work turns a non-adaptive influence-*maximization* routine into
// a seed-*minimization* one by searching the budget k: solve IM for k,
// check whether the estimated spread reaches η, narrow the interval. We
// instantiate the inner IM solver with RR-set greedy (IMM-style) over one
// RR collection. Greedy picks are prefix-consistent and the estimate
// n·Λ(S_k)/θ only rises with k, so one greedy pass answers every probe:
// the run makes a single CELF call with budget n and keeps the shortest
// prefix whose estimate reaches the target — the k and the seed list the
// exponential search and bisection over k would find. Like ATEUC it is
// non-adaptive and inherits the per-realization reliability problem.
// Included as a second non-adaptive baseline and as the "what the
// pre-ATEUC literature did" reference point.

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

/// Tuning knobs for the bisection baseline.
struct BisectionOptions {
  size_t samples = 8192;      // RR-sets in the one collection
  double target_slack = 1.2;  // aim E[I(S)] at slack·η, like ATEUC
  /// Shared external pool for RR generation and greedy coverage;
  /// semantics as TrimOptions::pool.
  ThreadPool* pool = nullptr;
  /// Cooperative stop condition; polled per generation stride and per
  /// greedy heap round. A fired scope returns a partial result the
  /// caller must discard; semantics as AteucOptions::cancel.
  const CancelScope* cancel = nullptr;
  /// Per-request phase profile; semantics as TrimOptions::profile.
  RequestProfile* profile = nullptr;
  /// Shared sampler cache; when set, the single full-graph RR batch is the
  /// first `samples` sets of the (kRr, model) entry — shared with ATEUC and
  /// AdaptIM round 1 — and the run consumes zero draws from `rng`.
  SamplerCache* sampler_cache = nullptr;
};

/// Result of the bisection run.
struct BisectionResult {
  std::vector<NodeId> seeds;     // final seed set (greedy order prefix)
  double estimated_spread = 0.0; // n·Λ(S)/θ at the final k
  size_t num_samples = 0;        // RR-sets generated in total
};

/// Runs bisection-on-k seed minimization on the full graph.
BisectionResult RunBisectionSeedMin(const DirectedGraph& graph, DiffusionModel model,
                                    NodeId eta, const BisectionOptions& options,
                                    Rng& rng);

}  // namespace asti
