// TRIM — TRuncated Influence Maximization (Algorithm 2).
//
// Per ASTI round, TRIM returns a node whose expected marginal truncated
// spread is a (1 − 1/e)(1 − ε)-approximation to the best inactive node's.
// It follows the OPIM-C doubling scheme: start from θ° mRR-sets, pick the
// max-coverage node v*, certify it with the Lemma A.2 lower/upper bounds,
// and double the collection until Λˡ(v*)/Λᵘ(v°) ≥ 1 − ε̂ or the iteration
// budget T is exhausted. All constants match the paper's pseudocode.

#pragma once

#include "core/selector.h"
#include "diffusion/model.h"
#include "graph/graph.h"
#include "parallel/parallel_sampler.h"
#include "parallel/thread_pool.h"
#include "sampling/rr_collection.h"
#include "sampling/sampler_cache.h"

namespace asti {

/// Tuning knobs for TRIM; defaults mirror the paper's experiments (ε = 0.5).
struct TrimOptions {
  double epsilon = 0.5;          // approximation slack ε ∈ (0, 1)
  RootRounding rounding = RootRounding::kRandomized;  // ablation hook
  /// Externally owned worker pool for sampling and coverage (not owned;
  /// may be null = everything runs on the calling thread). Results are
  /// bit-identical for every pool size, including none (see
  /// src/parallel/README.md). Several selectors may share one pool
  /// (per-batch TaskGroups isolate them) — the SeedMinEngine serving mode.
  /// Must outlive the selector.
  ThreadPool* pool = nullptr;
  /// Cooperative stop condition (not owned; must outlive the selector).
  /// Polled at generation-stride and certify-iteration boundaries; once it
  /// fires, SelectBatch returns an empty (to-be-discarded) result promptly
  /// instead of finishing the doubling schedule. Completed selections are
  /// bit-identical with or without a scope attached.
  const CancelScope* cancel = nullptr;
  /// Per-request phase profile (not owned; may be null). Accrues sampling /
  /// coverage / certify wall time and sampling volume; never read by the
  /// algorithm, so selections are bit-identical with or without it.
  RequestProfile* profile = nullptr;
  /// Shared sampler cache (not owned; may be null). When set, the ROUND-1
  /// ladder — the only one whose sampling distribution is residual-free —
  /// reads the cache's exact prefixes instead of growing an owned
  /// collection, and consumes zero draws from the request RNG (cache
  /// streams are key-derived; see sampling/sampler_cache.h). Later rounds
  /// condition on activations and always sample into owned collections.
  /// Null = every round samples into owned collections.
  SamplerCache* sampler_cache = nullptr;
};

/// Single-seed truncated influence maximizer.
class Trim : public RoundSelector {
 public:
  /// The graph must outlive the selector.
  Trim(const DirectedGraph& graph, DiffusionModel model, TrimOptions options = {});

  /// Algorithm 2 on the residual graph described by `view`.
  SelectionResult SelectBatch(const ResidualView& view, Rng& rng) override;

  const char* Name() const override { return "ASTI"; }

 private:
  const DirectedGraph* graph_;
  DiffusionModel model_;
  TrimOptions options_;
  ParallelRrSampler parallel_sampler_;
  RrCollection collection_;
};

/// Constants of one TRIM invocation (Alg. 2 lines 1-5), exposed so tests
/// can pin them against the pseudocode.
struct TrimSchedule {
  double delta = 0.0;      // δ
  double eps_hat = 0.0;    // ε̂
  double theta_max = 0.0;  // θ_max
  size_t theta_zero = 0;   // θ°
  size_t max_iterations = 0;  // T
  double a1 = 0.0;
  double a2 = 0.0;
};

/// Computes the Algorithm 2 schedule for a round with n_i inactive nodes
/// and shortfall η_i.
TrimSchedule ComputeTrimSchedule(NodeId num_inactive, NodeId shortfall, double epsilon);

}  // namespace asti
