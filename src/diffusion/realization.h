// Live-edge realizations (§2.1).
//
// IC: every edge flips an independent coin with its propagation probability;
// a realization is the set of live edges.
// LT: the standard live-edge equivalence — every node independently keeps at
// most one incoming edge, edge (u, v) with probability p(u, v) and none with
// probability 1 - Σ p(·, v). Influence spread distributions are identical to
// the threshold-based process (Kempe et al. 2003).
//
// A Realization fixes all randomness of one propagation world; forward
// simulation on it is deterministic.
//
// Storage, both models: one live out-edge CSR — n + 1 offsets and one
// target per live edge, each source's live targets in its out-edge order.
// A forward walk reads only live edges, so observing a batch costs
// O(activated nodes + their live out-edges), not their out-degree.
// - IC flips one coin per forward edge, in forward order, in one pass with
//   no branch per coin: each target is written at the live count and its
//   coin advances the count, so the live targets stay in order. Σ p
//   targets in expectation (at most n under weighted cascade, whose
//   in-probabilities sum to 1).
// - LT draws one x per node with in-edges, in node order. At a node whose
//   in-edges share one p (DirectedGraph::UniformInProbability) the live
//   edge is slot ⌊x/p⌋ if that slot is below the in-degree, in O(1), the
//   rule reverse sampling uses (sampling/rr_set.h); elsewhere a scan
//   subtracts the in-probabilities from x until one exceeds it. The slot
//   and the scan pick the same edge unless x lies within rounding of a
//   slot boundary. Each node is then filed under its chosen source in
//   ascending id order, which is that source's out-edge order: the
//   builder, delta mints and the snapshot writer all store a source's
//   targets ascending. At most n targets.

#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace asti {

/// Checks the LT precondition Σ in-probabilities ≤ 1 (+tolerance) for every
/// node; call once before running LT campaigns on hand-built graphs.
/// Weighted-cascade weights satisfy it by construction.
Status ValidateLtCompatible(const DirectedGraph& graph);

/// One sampled world. Copyable; sized O(n + live edges).
class Realization {
 public:
  /// Samples a full IC realization (one coin per edge).
  static Realization SampleIc(const DirectedGraph& graph, Rng& rng);

  /// Samples a full LT realization (at most one live in-edge per node).
  /// Requires Σ in-probabilities ≤ 1 + 1e-9 for every node.
  static Realization SampleLt(const DirectedGraph& graph, Rng& rng);

  const DirectedGraph& graph() const { return *graph_; }

  /// Targets of u's live out-edges, in u's out-edge order. Under LT, v is
  /// here iff u is the source of v's one live in-edge.
  std::span<const NodeId> LiveOutNeighbors(NodeId u) const {
    ASM_DCHECK(u < graph_->NumNodes());
    return std::span<const NodeId>(live_targets_)
        .subspan(live_offsets_[u], live_offsets_[u + 1] - live_offsets_[u]);
  }

  /// Number of live edges (testing / statistics).
  size_t CountLiveEdges() const { return live_targets_.size(); }

 private:
  explicit Realization(const DirectedGraph& graph)
      : graph_(&graph), live_offsets_(size_t{graph.NumNodes()} + 1, 0) {}

  const DirectedGraph* graph_;
  std::vector<EdgeId> live_offsets_;  // size n + 1
  std::vector<NodeId> live_targets_;  // one per live edge, grouped by source
};

}  // namespace asti
