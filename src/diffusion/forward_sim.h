// Deterministic forward propagation on a fixed realization.
//
// Given a realization φ and a seed set S, the spread I_φ(S) is the number
// of nodes reachable from S over live edges. The residual variants restrict
// propagation to currently-inactive nodes, computing marginal spreads
// I_φ(S | S_{i-1}) on the residual graph G_i (Eq. 3).
//
// The BFS walks Realization::LiveOutNeighbors, so a call costs
// O(|S| + activated nodes + their live out-edges); dead edges are never
// read. Nodes come out in discovery order: seeds first, then each node's
// live targets in its out-edge order.

#pragma once

#include <vector>

#include "diffusion/realization.h"
#include "graph/graph.h"
#include "util/bit_vector.h"

namespace asti {

/// Reusable scratch space for repeated forward simulations on one graph.
class ForwardSimulator {
 public:
  explicit ForwardSimulator(const DirectedGraph& graph)
      : graph_(&graph), visited_(graph.NumNodes()) {}

  /// Nodes activated by `seeds` under `realization` (includes the seeds),
  /// in BFS discovery order. Duplicate seeds are counted once.
  std::vector<NodeId> Propagate(const Realization& realization,
                                const std::vector<NodeId>& seeds);

  /// Residual variant: nodes already active (per `active`) neither activate
  /// nor relay; seeds already active contribute nothing. Returns the newly
  /// activated nodes only.
  std::vector<NodeId> PropagateResidual(const Realization& realization,
                                        const std::vector<NodeId>& seeds,
                                        const BitVector& active);

  /// Spread I_φ(S): |Propagate(...)|.
  size_t Spread(const Realization& realization, const std::vector<NodeId>& seeds);

 private:
  template <bool kResidual>
  std::vector<NodeId> Run(const Realization& realization, const std::vector<NodeId>& seeds,
                          const BitVector* active);

  const DirectedGraph* graph_;
  EpochVisitedSet visited_;
};

}  // namespace asti
