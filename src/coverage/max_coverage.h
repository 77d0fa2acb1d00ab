// Shared vocabulary of the max-coverage solver over an RR collection.
//
// TRIM-B's per-round subproblem (Alg. 3 line 8) is budgeted maximum
// coverage: pick b nodes covering the most stored sets. The one solver is
// CELF in coverage/lazy_greedy.h, which returns the classical greedy's
// picks (ties: lowest node id) with approximation factor
// ρ_b = 1 − (1 − 1/b)^b; Bisection and ATEUC read its pick curve too.
// There is no eager solver here: the eager greedy and the brute-force
// optimum that tests validate CELF and ρ_b against live in
// tests/coverage_reference.h.
//
// With a multi-worker pool the inverted-index build, CELF's stale-gain
// re-evaluations and the argmax scan fan out across workers while keeping
// the (gain, lowest-node-id) selection rule exact, so results are
// bit-identical to the sequential path at every thread count.

#pragma once

#include <vector>

#include "obs/span.h"
#include "parallel/thread_pool.h"
#include "sampling/shared_collection.h"

namespace asti {

/// Result of a budgeted max-coverage computation.
struct MaxCoverageResult {
  std::vector<NodeId> selected;             // chosen nodes, pick order
  uint32_t covered_sets = 0;                // |sets hit by selected|
  std::vector<uint32_t> marginal_coverage;  // newly covered sets per pick
};

/// ρ_b = 1 − (1 − 1/b)^b, the greedy guarantee used throughout TRIM-B.
double GreedyCoverageRatio(NodeId budget);

/// Λ_R argmax over the collection's coverage counts ((coverage, lowest id)
/// rule): the b = 1 selection TRIM/AdaptIM run every certify iteration. A
/// multi-worker `pool` splits the scan into chunk-local argmaxes merged in
/// chunk order — same node as the sequential scan for every thread count.
/// `profile` (optional) accrues the scan's wall time into the coverage
/// slot. Requires n > 0.
NodeId ArgMaxCoverage(const CollectionView& collection, ThreadPool* pool,
                      RequestProfile* profile = nullptr);

/// First occurrence of every node in `candidates`, later duplicates
/// dropped; checks every entry against [0, n). The guard behind the
/// solver's candidate contract: a duplicated candidate must not yield two
/// picks of the same node (the second would re-evaluate to gain 0 and be
/// accepted as a filler pick, corrupting TRIM-B's residual-list contract),
/// and the effective pool size counts unique nodes.
std::vector<NodeId> DedupeCandidates(const std::vector<NodeId>& candidates, NodeId n);

}  // namespace asti
