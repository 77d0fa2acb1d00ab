// The adaptive "real world": a hidden realization plus the revealed state.
//
// AdaptiveWorld is the select-observe-select substrate of ASM (§2.2): a
// policy submits seeds one batch at a time, the world propagates them on
// its hidden realization restricted to inactive nodes, and reveals the
// newly activated set. The world also maintains the residual-graph
// bookkeeping every sampler needs: the active mask, the inactive node list
// (for uniform root sampling), n_i and the shortfall η_i.
//
// A world stores its realization (a live out-edge CSR: n + 1 offsets and
// one target per live edge, see realization.h), the active mask (n bits),
// the inactive list with each node's position in it (two n-sized arrays)
// and the simulator's visited stamps (n). Making one costs the
// realization's sampling plus O(n) to fill those arrays. Observe costs
// O(|seeds| + newly activated nodes + their live out-edges) and never
// reads a dead edge.

#pragma once

#include <vector>

#include "diffusion/forward_sim.h"
#include "diffusion/model.h"
#include "diffusion/realization.h"
#include "graph/graph.h"
#include "util/bit_vector.h"
#include "util/rng.h"

namespace asti {

/// Hidden-realization oracle with residual bookkeeping.
class AdaptiveWorld {
 public:
  /// Creates a world over a freshly sampled realization.
  AdaptiveWorld(const DirectedGraph& graph, DiffusionModel model, NodeId eta, Rng& rng);

  /// Creates a world over a caller-supplied realization (tests, replays).
  AdaptiveWorld(const DirectedGraph& graph, NodeId eta, Realization realization);

  const DirectedGraph& graph() const { return *graph_; }
  const Realization& realization() const { return realization_; }

  /// Threshold η.
  NodeId eta() const { return eta_; }
  /// Nodes activated so far (|V| - n_i).
  NodeId NumActive() const { return num_active_; }
  /// n_i: inactive node count.
  NodeId NumInactive() const { return graph_->NumNodes() - num_active_; }
  /// η_i = η - (n - n_i), clamped at 0.
  NodeId Shortfall() const {
    return eta_ > num_active_ ? eta_ - num_active_ : 0;
  }
  /// Whether at least η nodes are active.
  bool TargetReached() const { return num_active_ >= eta_; }

  bool IsActive(NodeId v) const { return active_.Get(v); }
  const BitVector& ActiveMask() const { return active_; }

  /// Inactive nodes, unordered; stable between observations.
  const std::vector<NodeId>& InactiveNodes() const { return inactive_nodes_; }

  /// Seeds a batch and propagates on the hidden realization restricted to
  /// inactive nodes. Returns newly activated nodes (seeds included if they
  /// were inactive). Already-active seeds are permitted and contribute 0.
  std::vector<NodeId> Observe(const std::vector<NodeId>& seeds);

  /// Convenience for singleton batches.
  std::vector<NodeId> Observe(NodeId seed) { return Observe(std::vector<NodeId>{seed}); }

 private:
  void MarkActive(NodeId v);

  const DirectedGraph* graph_;
  Realization realization_;
  ForwardSimulator simulator_;
  NodeId eta_;
  BitVector active_;
  NodeId num_active_ = 0;
  std::vector<NodeId> inactive_nodes_;     // compact list
  std::vector<uint32_t> inactive_position_;  // node -> index in inactive_nodes_
};

}  // namespace asti
