// Closed-form theoretical guarantees of the paper, as a calculator.
//
// Given an instance (n, m, η) and knobs (ε, b), computes the end-to-end
// approximation ratio and the expected sampling budgets that Theorems
// 3.1/3.7/4.2 and Lemmas 3.8/3.9/4.3 promise. Useful for sizing a
// deployment before running anything, and for the lemma-scaling bench that
// validates the implementation against the theory.

#pragma once

#include <cstddef>

#include "graph/types.h"

namespace asti {

/// Theoretical characterization of one ASM instance under ASTI.
struct TheoreticalGuarantees {
  /// Per-round ratio of TRIM / TRIM-B: ρ_b(1 − 1/e)(1 − ε) (Lemmas 3.6/4.1).
  double per_round_ratio = 0.0;
  /// Golovin–Krause policy factor (ln η + 1)² (Theorem 3.1).
  double policy_factor = 0.0;
  /// End-to-end expected approximation ratio (Theorems 3.7/4.2):
  /// policy_factor / per_round_ratio.
  double end_to_end_ratio = 0.0;
  /// Hardness floor: no polynomial algorithm beats (1 − ξ)·ln η (Lemma 3.5).
  double hardness_floor = 0.0;
  /// O(η(m+n)ln n / ε²) — the expected-time bound's leading term
  /// (Theorems 3.11/4.4), in abstract "operations".
  double expected_time_bound = 0.0;
  /// Expected mRR-sets per round when the round optimum is OPT_i
  /// (Lemma 3.9/4.3 with the caller's OPT guess), leading constant dropped.
  double samples_per_round = 0.0;
};

/// Knobs mirrored from TrimOptions.
struct GuaranteeQuery {
  NodeId num_nodes = 0;   // n
  size_t num_edges = 0;   // m
  NodeId eta = 0;         // η ∈ [1, n]
  double epsilon = 0.5;   // ε ∈ (0, 1)
  NodeId batch = 1;       // b ≥ 1
  /// Caller's estimate of the per-round optimum E[Γ̃(v° | ·)]; defaults to
  /// the worst case OPT_i = 1.
  double opt_estimate = 1.0;
};

/// Evaluates every closed form above. Aborts on out-of-range inputs.
TheoreticalGuarantees ComputeGuarantees(const GuaranteeQuery& query);

}  // namespace asti
