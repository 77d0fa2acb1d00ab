// Single-root reverse-reachable set sampling (Borgs et al. 2014).
//
// A random RR-set is the set of nodes that reach a uniformly chosen root
// in a random realization. n · Pr[S ∩ R ≠ ∅] = E[I(S)], which makes RR
// collections unbiased spread estimators — the machinery behind the
// AdaptIM and ATEUC baselines. The residual variant roots at a uniform
// *inactive* node and traverses only inactive nodes, estimating marginal
// spreads on G_i.
//
// IC traversal: reverse BFS in which each in-edge is live independently.
// A node flips one coin per in-edge and reads the visited/active scratch
// only at live edges. At a node whose in-edges all carry one probability p
// (DirectedGraph::UniformInProbability — every node under weighted
// cascade) and that has kMinSkipInDegree or more of them, the traversal
// instead jumps over ⌊ln(1−U)/ln(1−p)⌋ dead edges per draw, so a hub costs
// O(1 + live edges) instead of O(indeg). At p = 1 every edge is live and
// no coin is drawn.
// LT traversal: each visited node retains at most one in-edge (live-edge
// equivalence), chosen by one draw x: at a uniform node the live edge is
// slot ⌊x/p⌋ if that slot is below indeg (O(1)); otherwise a scan
// subtracts the in-probabilities from x until one exceeds it.

#pragma once

#include <vector>

#include "diffusion/model.h"
#include "graph/graph.h"
#include "sampling/rr_collection.h"
#include "util/bit_vector.h"
#include "util/rng.h"

namespace asti {

/// Cumulative traversal-cost counters in the paper's cost model; back the
/// Lemma 3.8/3.9 validation bench (expected mRR cost ∝ OPT_i/η_i · m_i).
struct SamplerCost {
  uint64_t nodes_visited = 0;
  /// In-degree summed over visited nodes — the edges a per-edge traversal
  /// examines. It is not the number of coins flipped or sources read:
  /// uniform nodes read sources only at live edges, and hubs skip dead
  /// edges without a draw each.
  uint64_t edges_examined = 0;
};

/// In-degree from which IC traversal skips dead in-edges at a uniform node
/// instead of flipping a coin per edge. Skipping costs a logarithm per node
/// and a logarithm and a division per draw; on the weighted-cascade
/// surrogates (one thread, CPU time per RR and mRR set) thresholds 12–32
/// measured alike, and 0 (always skip) and 48 slower.
inline constexpr size_t kMinSkipInDegree = 16;

/// Sampler of single-root RR-sets; reusable scratch per graph.
class RrSampler {
 public:
  RrSampler(const DirectedGraph& graph, DiffusionModel model)
      : graph_(&graph), model_(model), visited_(graph.NumNodes()) {}

  /// Cumulative cost since construction / the last ResetCost().
  const SamplerCost& cost() const { return cost_; }
  void ResetCost() { cost_ = SamplerCost{}; }

  /// Appends one RR-set to `out`. The root is drawn uniformly from
  /// `candidates` (the residual node list); nodes with active->Get(v) true
  /// are excluded from traversal. Pass active == nullptr for the full graph.
  /// Sink is any type with the RrCollection building protocol; instantiated
  /// for RrCollection and RrSetBuffer (worker-local parallel staging).
  template <class Sink>
  void Generate(const std::vector<NodeId>& candidates, const BitVector* active,
                Sink& out, Rng& rng);

 private:
  friend class MrrSampler;

  // Continues a reverse traversal over every node already pushed to the
  // in-progress set of `out` (the pool doubles as the BFS queue).
  template <class Sink>
  void TraverseFrom(const BitVector* active, Sink& out, Rng& rng);

  const DirectedGraph* graph_;
  DiffusionModel model_;
  EpochVisitedSet visited_;
  SamplerCost cost_;
};

}  // namespace asti
