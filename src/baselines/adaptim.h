// AdaptIM baseline — adaptive influence maximization adapted to seed
// minimization (§6.1 of the paper; Han et al., PVLDB 2018).
//
// Per round it selects the inactive node maximizing the *untruncated*
// expected marginal spread E[I(v | S_{i-1})]. It runs TRIM's certify loop
// (core/trim.h CertifyOnLadder, b = 1) on vanilla single-root RR-sets with
// EPIC's constants: δ = 1/n_i, ε̂ = ε, and gain scale n_i. Run under
// ASTI's loop until the threshold is met, it is empirically effective at
// seed minimization but (a) carries no truncated-spread guarantee (§3.2)
// and (b) needs Θ(n_i/OPT'_i) samples per round versus TRIM's
// Θ(η_i/OPT_i) — the source of the 10-20× slowdown in Figs. 5/7.

#pragma once

#include <optional>

#include "core/selector.h"
#include "diffusion/model.h"
#include "graph/graph.h"
#include "parallel/parallel_sampler.h"
#include "parallel/thread_pool.h"
#include "sampling/rr_collection.h"
#include "sampling/sampler_cache.h"

namespace asti {

/// Tuning knobs for AdaptIM.
struct AdaptImOptions {
  double epsilon = 0.5;  // certification slack ε ∈ (0, 1)
  /// Shared external pool; semantics as TrimOptions::pool.
  ThreadPool* pool = nullptr;
  /// Cooperative stop condition; semantics as TrimOptions::cancel.
  const CancelScope* cancel = nullptr;
  /// Per-request phase profile; semantics as TrimOptions::profile.
  RequestProfile* profile = nullptr;
  /// Shared sampler cache; semantics as TrimOptions::sampler_cache. The
  /// round-1 single-root RR entry is shared with ATEUC/Bisection (same
  /// full-graph distribution, key (kRr, model)).
  SamplerCache* sampler_cache = nullptr;
};

/// Untruncated-marginal-spread round selector.
class AdaptIm : public RoundSelector {
 public:
  /// The graph must outlive the selector.
  AdaptIm(const DirectedGraph& graph, DiffusionModel model, AdaptImOptions options = {});

  SelectionResult SelectBatch(const ResidualView& view, Rng& rng) override;

  const char* Name() const override { return "AdaptIM"; }

 private:
  const DirectedGraph* graph_;
  DiffusionModel model_;
  AdaptImOptions options_;
  // Owned-ladder scratch, built by the first round that samples (see
  // Trim's).
  std::optional<ParallelRrSampler> parallel_sampler_;
  std::optional<RrCollection> collection_;
};

}  // namespace asti
