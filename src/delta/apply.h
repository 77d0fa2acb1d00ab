// ApplyDelta — mint the next epoch's DirectedGraph from a base snapshot
// plus an EdgeDelta batch, without re-sorting the untouched edges.
//
// The invariant that makes deltas safe to serve: the minted graph is
// DIGEST-IDENTICAL (graph/graph.h ForwardCsrDigest, and in fact
// bit-identical across all seven CSR arrays) to a from-scratch
// GraphBuilder build of the mutated edge list. Touched adjacency rows are
// merged in target order (the builder's canonical (source, target) sort
// restricted to one row); untouched row runs are block-copied; the
// reverse CSR is derived with the exact counting sort every other build
// path uses (BuildReverseCsr). Because the bytes are what a rebuild would
// produce, every downstream determinism contract — sampler-cache streams,
// snapshot digests — carries over unchanged.
//
// Structural sharing: a reweight-only batch (no inserts or deletes) keeps
// the CSR shape, so the minted graph SHARES the base's offsets / targets /
// sources / edge-id arrays by span (pinning the base storage — including
// an mmap'd snapshot file — via its keepalive) and materializes only the
// two probability arrays. Shape-changing batches rebuild the arrays with
// run-level copies of untouched rows.

#pragma once

#include "delta/edge_delta.h"
#include "graph/graph.h"
#include "util/status.h"

namespace asti {

/// What an apply did; informational (tooling, bench, tests).
struct DeltaApplyStats {
  size_t inserted = 0;
  size_t deleted = 0;
  size_t reweighted = 0;
  /// Forward rows whose adjacency run was merged (had at least one op).
  size_t rows_touched = 0;
  /// True when the batch was reweight-only and the minted graph spans the
  /// base's structure arrays instead of copying them.
  bool shared_structure = false;
};

/// Applies `delta` to `base` and returns the minted graph.
/// InvalidArgument when the batch fails ValidateDelta, when
/// delta.base_digest is non-zero and does not match ForwardCsrDigest(base),
/// when an op's endpoint is out of range, when an insert's edge already
/// exists, when a delete/reweight's edge does not, or when a non-zero
/// delta.result_digest disagrees with the minted graph. The base must be a
/// canonical CSR (rows sorted by target — every library build path
/// produces this). The minted graph keeps the base alive only for
/// reweight-only batches (span sharing); otherwise it owns fresh storage.
StatusOr<DirectedGraph> ApplyDelta(const DirectedGraph& base, const EdgeDelta& delta,
                                   DeltaApplyStats* stats = nullptr);

/// Reference implementation of the digest-identity contract: mutates the
/// base's flat edge list and rebuilds through GraphBuilder. O(m log m);
/// tests and the churn bench compare ApplyDelta against this.
StatusOr<DirectedGraph> ApplyDeltaByRebuild(const DirectedGraph& base,
                                            const EdgeDelta& delta);

/// Stamps `delta.base_digest` from `base` and `delta.result_digest` from a
/// trial apply, binding the batch to exactly this epoch transition.
/// Forwards ApplyDelta's errors.
Status StampDigests(const DirectedGraph& base, EdgeDelta& delta);

}  // namespace asti
