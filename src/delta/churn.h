// Deterministic random EdgeDelta generation — the mutation source of
// servebench's lt-churn swaps and the delta tests. Pure function of
// (graph, spec, rng state): the same seed replays the same mutation trace,
// which is what lets a churn run's end state be checked against a
// from-scratch rebuild.

#pragma once

#include "delta/edge_delta.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace asti {

struct ChurnSpec {
  /// Requested op counts. Deletes/reweights are clamped to the edges
  /// available (each op consumes a distinct edge); inserts give up after a
  /// bounded number of rejection-sampling attempts on dense graphs — a
  /// generated batch may be smaller than asked, never invalid.
  size_t inserts = 8;
  size_t deletes = 8;
  size_t reweights = 8;
};

/// A valid batch against `graph`: deletes and reweights pick distinct
/// existing edges, inserts pick currently-absent non-self-loop pairs, no
/// two ops share an edge. The batch carries base_digest and result_digest
/// (StampDigests), binding it to this epoch. InvalidArgument only for
/// graphs with < 2 nodes.
StatusOr<EdgeDelta> MakeRandomDelta(const DirectedGraph& graph, const ChurnSpec& spec,
                                    Rng& rng);

}  // namespace asti
