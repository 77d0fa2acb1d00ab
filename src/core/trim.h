// TRIM — TRuncated Influence Maximization (Algorithms 2 and 3).
//
// Per ASTI round, TRIM returns b seeds whose expected marginal truncated
// spread is a ρ_b(1 − 1/e)(1 − ε)-approximation to the best b-set's, with
// ρ_b = 1 − (1 − 1/b)^b. Algorithm 2 is Algorithm 3 (TRIM-B) at b = 1, as
// ρ_1 = 1 and ln C(n_i, 1) = ln n_i. CertifyOnLadder runs the OPIM-C
// doubling scheme both share with AdaptIM: start from θ° sets, pick the
// max-coverage batch, certify it with the Lemma A.2 bounds, and double
// until Λˡ(S*)/Λᵘ(S°) ≥ ρ_b(1 − ε̂) or the iteration budget T is spent.
// All constants match the paper's pseudocode.
//
// One departure from Algorithms 2-3: before either ladder, SelectBatch
// tries a one-hop certificate (CertifyOneHop) and, when it holds, returns
// its batch without sampling. The proofs of Theorems 3.7 and 4.2 use only
// the per-round bound E[Δ(S | history)] ≥ ρ_b(1 − 1/e)(1 − ε)·OPT_i, which
// TRIM meets with probability 1 − δ. Since OPT_i ≤ η_i, a batch whose
// expected truncated marginal spread provably reaches ρ_b(1 − 1/e)(1 − ε)·η_i
// meets it with probability 1, so both theorems still hold. For an inactive
// v, let X_v count v's live out-edges into inactive nodes. Under IC those
// edges are unobserved, so X_v is a Poisson binomial over their p. Under LT
// the history only raises each target's chance of picking v and keeps
// targets independent, so X_v dominates that Poisson binomial. Any batch
// holding v therefore reaches max(E[min(η_i, 1 + X_v)], min(b, η_i)).

#pragma once

#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

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
  double epsilon = 0.5;   // approximation slack ε ∈ (0, 1)
  NodeId batch_size = 1;  // b ≥ 1 seeds per round; b = 1 is Algorithm 2
  /// Ablation hook; a rule other than kRandomized bypasses the sampler
  /// cache, whose mRR entries use randomized rounding only.
  RootRounding rounding = RootRounding::kRandomized;
  /// Externally owned worker pool for sampling and coverage (not owned;
  /// may be null = everything runs on the calling thread). Results are
  /// bit-identical for every pool size, including none (see
  /// src/parallel/README.md). Several selectors may share one pool
  /// (each loop waits only for its own blocks) — the SeedMinEngine serving
  /// mode.
  /// Must outlive the selector.
  ThreadPool* pool = nullptr;
  /// Cooperative stop condition (not owned; must outlive the selector).
  /// Polled at generation-stride, greedy-pick and certify-iteration
  /// boundaries; once it fires, SelectBatch returns an empty result
  /// promptly instead of finishing the doubling schedule. Completed
  /// selections are bit-identical with or without a scope attached.
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

/// Truncated influence maximizer selecting b seeds per round.
class Trim : public RoundSelector {
 public:
  /// The graph must outlive the selector.
  Trim(const DirectedGraph& graph, DiffusionModel model, TrimOptions options = {});

  /// Algorithm 3 with batch min(b, n_i) on the residual graph `view`,
  /// unless CertifyOneHop answers the round first.
  SelectionResult SelectBatch(const ResidualView& view, Rng& rng) override;

  /// "ASTI" at b = 1, "ASTI-b" otherwise.
  const char* Name() const override { return name_.c_str(); }

 private:
  const DirectedGraph* graph_;
  DiffusionModel model_;
  TrimOptions options_;
  // Owned-ladder scratch (visited sets per pool slot, n coverage
  // counters), built by the first round that samples into it: a request
  // whose round 1 is served from the cache and reaches η never pays for it.
  std::optional<ParallelRrSampler> parallel_sampler_;
  std::optional<RrCollection> collection_;
  std::string name_;
};

/// Constants of one doubling-and-certify loop (Alg. 2/3 lines 1-5),
/// exposed so tests can pin them against the pseudocode.
struct TrimSchedule {
  NodeId batch = 1;        // b
  double delta = 0.0;      // δ
  double eps_hat = 0.0;    // ε̂
  double rho_b = 1.0;      // ρ_b
  double theta_max = 0.0;  // θ_max
  size_t theta_zero = 0;   // θ°
  size_t max_iterations = 0;  // T
  double a1 = 0.0;
  double a2 = 0.0;
};

/// Alg. 3 lines 2-5 for n_i inactive nodes, batch b ≤ n_i, δ and ε̂.
TrimSchedule ComputeCertifySchedule(NodeId num_inactive, NodeId batch, double delta,
                                    double eps_hat);

/// TRIM's schedule for shortfall η_i: δ and ε̂ from ε and η_i (line 1).
TrimSchedule ComputeTrimSchedule(NodeId num_inactive, NodeId shortfall, NodeId batch,
                                 double epsilon);

/// E[min(η_i, 1 + X)] for X the number of successes among independent
/// trials with probabilities `probs`, by an O(|probs|·min(|probs|, η_i)) DP.
/// Reads `probs` only until its prefix's value reaches `target` and returns
/// that value (a prefix never exceeds the whole): the result reaches
/// `target` exactly when the whole's does, and with an infinite target it
/// is the whole's.
double OneHopTruncatedSpread(std::span<const double> probs, NodeId eta_i,
                             double target = std::numeric_limits<double>::infinity());

/// The one-hop certificate for a round of `batch` = min(b, n_i) seeds at
/// ε: certifies a batch when min(batch, η_i) or, for some inactive v,
/// E[min(η_i, 1 + X_v)] reaches ρ_b(1 − 1/e)(1 − ε)·η_i, and returns v with
/// the next batch − 1 inactive nodes of `graph.NodesByOutMass()` (answer
/// kOneHop, no samples, gain = the certified bound). It rejects in O(1)
/// when 1 + graph.MaxOutMass() and min(batch, η_i) both fall short;
/// otherwise it walks the order past active nodes, drops a node whose
/// 1 + μ over edges into inactive nodes falls short (Jensen), and runs the
/// DP on at most eight nodes. X_v counts distinct live targets because a
/// graph has neither self-loops nor parallel edges (GraphBuilder).
std::optional<SelectionResult> CertifyOneHop(const DirectedGraph& graph,
                                             const ResidualView& view, NodeId batch,
                                             double epsilon);

/// Alg. 2/3 lines 6-13 on `ladder`: picks b nodes per rung (argmax at
/// b = 1, CELF over `candidates` at b ≥ 2) and returns the first certified
/// pick, or rung T's, with gain gain_scale·Λ(S)/|R| (η_i for mRR-sets, n_i
/// for RR-sets). A short ladder or a fired `cancel` yields no seeds.
/// Trim and AdaptIM call it directly on owned ladders (residual rounds, or
/// round 1 without a cache); their round 1 on a sampler cache reaches it
/// only through CertifyOnCache, on a memo miss.
SelectionResult CertifyOnLadder(const LadderSource& ladder, const TrimSchedule& schedule,
                                const std::vector<NodeId>& candidates, double gain_scale,
                                ThreadPool* pool, const CancelScope* cancel,
                                RequestProfile* profile);

/// Round 1 on `key`'s entry of `cache` (`candidates` = all n nodes): the
/// pick memoized on the entry for (schedule b, δ, ε̂, gain_scale), else
/// CertifyOnLadder over the entry's sets, stored when it completes. Both
/// return the same result, so a hit or a miss leaves the request's later
/// rounds on the same streams. A hit costs no coverage or certify time.
SelectionResult CertifyOnCache(SamplerCache& cache, const SamplerCacheKey& key,
                               const TrimSchedule& schedule,
                               const std::vector<NodeId>& candidates, double gain_scale,
                               ThreadPool* pool, const CancelScope* cancel,
                               RequestProfile* profile);

}  // namespace asti
