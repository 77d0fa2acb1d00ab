// CELF lazy greedy max coverage (Leskovec et al. 2007): the one greedy
// max-coverage solver. TRIM, TRIM-B and AdaptIM call it per rung with
// budget b; ATEUC reads its pick curve at budget η and Bisection at
// budget n.
//
// Picks are the classical greedy's: at every pick the (gain, lowest node
// id) argmax of the true marginal gains. Gains are re-evaluated lazily
// from a max-heap, touching only nodes whose cached gain might still be
// the maximum, which avoids the O(b·n) argmax scans of the eager greedy
// (tests/coverage_reference.h keeps that one as the reference). Greedy
// picks are prefix-consistent: the first k picks at budget b > k are the
// picks at budget k.
//
// Zero-gain fill. Cached gains are upper bounds on the true gains
// (submodularity), so once the heap top's cached gain is 0 every true gain
// is 0. From there CELF would pop the remaining candidates in ascending id,
// since (0, lowest id) is the heap order; the solver stops popping and
// appends exactly that order: the unselected candidates in ascending id,
// each with marginal 0, up to the budget. The picks are unchanged, and a
// budget-n call costs its covering picks plus one O(n) scan.
//
// With a multi-worker `pool`, stale heap entries are drained in geometric
// batches and their fresh gains re-evaluated concurrently over the node →
// set inverted index (see src/parallel/README.md, "Parallel greedy
// coverage"). Selection is provably the (gain, lowest-node-id) argmax at
// every pick regardless of batch boundaries, so the parallel path returns
// bit-identical results to the sequential one at every thread count.

#pragma once

#include "coverage/max_coverage.h"
#include "parallel/thread_pool.h"
#include "sampling/shared_collection.h"
#include "util/cancellation.h"

namespace asti {

/// Greedy max coverage with budget b (ties: lowest node id). Picks fewer
/// than b nodes only if b exceeds the candidate pool. When `candidates` is
/// non-null, only those nodes may be picked — TRIM-B passes the residual
/// node list so zero-gain filler picks can never land on an already-active
/// node. Duplicate candidate entries are deduplicated (a node is selected
/// at most once; the pool size counts unique nodes). `pool` parallelizes
/// the index build and the stale-gain re-evaluations. A non-null `cancel`
/// is polled per heap round (a pick or a stale-drain batch): once it fires,
/// the partial result so far is returned (callers observing the scope must
/// discard it — completed runs are unaffected by the polls). A non-null
/// `profile` accrues the call's wall time into its coverage slot; it is
/// never read by the solver, so selections are unchanged by it.
MaxCoverageResult LazyGreedyMaxCoverage(const CollectionView& collection, NodeId budget,
                                        const std::vector<NodeId>* candidates = nullptr,
                                        ThreadPool* pool = nullptr,
                                        const CancelScope* cancel = nullptr,
                                        RequestProfile* profile = nullptr);

}  // namespace asti
