// TRIM-B — batched TRuncated Influence Maximization (Algorithm 3).
//
// Generalizes TRIM to select b seeds per round via greedy max coverage over
// the mRR collection. The per-round guarantee becomes
// ρ_b (1 − 1/e)(1 − ε) with ρ_b = 1 − (1 − 1/b)^b; the schedule constants
// gain the b and ln C(n_i, b) terms from the paper's pseudocode. With
// b == 1 TRIM-B degenerates to TRIM exactly.

#pragma once

#include <string>

#include "core/selector.h"
#include "diffusion/model.h"
#include "graph/graph.h"
#include "parallel/parallel_sampler.h"
#include "parallel/thread_pool.h"
#include "sampling/rr_collection.h"
#include "sampling/sampler_cache.h"

namespace asti {

/// Tuning knobs for TRIM-B.
struct TrimBOptions {
  double epsilon = 0.5;   // approximation slack ε ∈ (0, 1)
  NodeId batch_size = 2;  // b ≥ 1
  RootRounding rounding = RootRounding::kRandomized;
  /// Shared external pool; semantics as TrimOptions::pool.
  ThreadPool* pool = nullptr;
  /// Cooperative stop condition; semantics as TrimOptions::cancel (also
  /// polled per greedy-coverage pick inside the certify step).
  const CancelScope* cancel = nullptr;
  /// Per-request phase profile; semantics as TrimOptions::profile.
  RequestProfile* profile = nullptr;
  /// Shared sampler cache; semantics as TrimOptions::sampler_cache (round-1
  /// ladders reuse the cache's sealed prefixes, zero request-RNG draws).
  SamplerCache* sampler_cache = nullptr;
};

/// Batched truncated influence maximizer.
class TrimB : public RoundSelector {
 public:
  /// The graph must outlive the selector.
  TrimB(const DirectedGraph& graph, DiffusionModel model, TrimBOptions options);

  /// Algorithm 3 on the residual graph described by `view`. The effective
  /// batch size is min(b, n_i).
  SelectionResult SelectBatch(const ResidualView& view, Rng& rng) override;

  const char* Name() const override { return name_.c_str(); }

 private:
  const DirectedGraph* graph_;
  DiffusionModel model_;
  TrimBOptions options_;
  ParallelRrSampler parallel_sampler_;
  RrCollection collection_;
  std::string name_;
};

/// Constants of one TRIM-B invocation (Alg. 3 lines 1-5).
struct TrimBSchedule {
  double delta = 0.0;
  double eps_hat = 0.0;
  double rho_b = 0.0;      // ρ_b
  double theta_max = 0.0;
  size_t theta_zero = 0;
  size_t max_iterations = 0;
  double a1 = 0.0;
  double a2 = 0.0;
};

/// Computes the Algorithm 3 schedule for a round with n_i inactive nodes,
/// shortfall η_i, and batch size b ≤ n_i.
TrimBSchedule ComputeTrimBSchedule(NodeId num_inactive, NodeId shortfall, NodeId batch,
                                   double epsilon);

}  // namespace asti
