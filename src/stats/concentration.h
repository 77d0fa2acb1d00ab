// Martingale concentration machinery (Appendix A of the paper).
//
// Lemma A.2 turns an observed coverage count Λ (a sum of T [0,1] random
// variables) into high-probability lower/upper bounds on its expectation:
//
//   Λˡ(Λ, a) = (√(Λ + 2a/9) − √(a/2))² − a/18   ≤ E[Λ]   w.p. ≥ 1 − e^{-a}
//   Λᵘ(Λ, a) = (√(Λ + a/2) + √(a/2))²           ≥ E[Λ]   w.p. ≥ 1 − e^{-a}
//
// These drive the certify loop's stopping rule (Alg. 2/3 lines 9-11, shared
// with AdaptIM). Lemma A.1's Chernoff-style tails are exposed for tests.

#pragma once

#include <cstddef>
#include <cstdint>

namespace asti {

/// Lemma A.2, Eq. (18): high-probability lower bound on E[Λ] given the
/// observed coverage `coverage` and confidence parameter `a` (failure
/// probability e^{-a}). Clamped at 0.
double CoverageLowerBound(double coverage, double a);

/// Lemma A.2, Eq. (19): high-probability upper bound on E[Λ].
double CoverageUpperBound(double coverage, double a);

/// Lemma A.1, Eq. (16): upper-tail probability
/// Pr[mean > E + λ] ≤ exp(−λ²T / (2E + 2λ/3)).
double ChernoffUpperTail(double expectation_mean, double lambda, size_t trials);

/// Lemma A.1, Eq. (17): lower-tail probability
/// Pr[mean < E − λ] ≤ exp(−λ²T / (2E)).
double ChernoffLowerTail(double expectation_mean, double lambda, size_t trials);

/// ln C(n, k) via lgamma (exactly ln n at k = 1); the union bound over
/// size-b sets in TRIM's certify schedule.
double LogBinomial(double n, double k);

// --- Needed-sets queries (doubling schedules) -------------------------------
// The OPIM-C-style doubling loop (core/trim.h's CertifyOnLadder, which TRIM
// at every b and AdaptIM run, and the two-group variant's own) samples θ°
// sets up front and doubles until the Lemma A.2 bounds certify. These two helpers make the schedule's sample counts a
// queryable function instead of loop-private state — the admission query
// the shared sampler cache uses to ask for EXACT prefix lengths (so a
// request's collection sizes are independent of what the cache happens to
// hold), and the quantity stats_test pins against the legacy loops.

/// Sets held after `iteration` (1-based) rounds of the doubling schedule:
/// θ°·2^(iteration−1), saturating instead of overflowing. Monotone in both
/// arguments. iteration == 0 yields 0.
size_t DoublingLadderSets(size_t theta_zero, size_t iteration);

/// Number of ladder iterations needed to reach θ_max starting from θ°:
/// ⌈log2(θ_max/θ°)⌉ + 1 — the T every schedule derives its per-iteration
/// confidence budget (a₁, a₂) from. Requires theta_zero ≥ 1; returns 1 when
/// θ_max ≤ θ°.
size_t DoublingLadderIterations(size_t theta_zero, double theta_max);

}  // namespace asti
