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
// At a node whose d in-edges all carry one probability p < 1 and whose
// chance (1 − p)^d of no live in-edge is at or above the count cap
// (DirectedGraph::NoLiveInProbabilities — every node under weighted
// cascade), the traversal draws the live in-edges at once (DrawLiveSlots):
// one uniform for their number, one bounded draw per live edge, so the
// node costs O(1 + live edges) instead of O(d). A uniform node above the
// cap draws the same way block by block (DrawLiveSlotsInBlocks), each
// block as long as the cap allows. At p = 1 every edge is live and nothing
// is drawn. Mixed nodes flip one coin per in-edge. Sources are read only
// at live edges.
// LT traversal: each visited node retains at most one in-edge (live-edge
// equivalence), chosen by one draw x: at a uniform node the live edge is
// slot ⌊x/p⌋ if that slot is below indeg (O(1)); otherwise a scan
// subtracts the in-probabilities from x until one exceeds it.
//
// Both traversals take the BFS queue a group at a time: up to 16 nodes
// that are already queued (RrSampler::kGroup). A group first reads each
// node's in-edge range and prefetches its first in-probability, then makes
// every draw of the group, node by node in queue order, prefetching the
// source of each live edge as its slot is drawn, and then joins those
// sources in the same order. A joined node is pushed behind the group and
// its in-offset row (and, under IC, its q₀) is prefetched then, so a later
// group finds them in cache. A visited node is a chain of dependent loads;
// grouping lets a core wait on a group's cache misses at once instead of on
// one at a time (the group prefetching of Chen, Ailamaki, Gibbons and
// Mowry, ICDE 2004).
//
// The grouped order keeps every stream. No draw reads the visited set or
// the active mask, a group holds only nodes queued before it began, and its
// joins run in draw order, so the draws, the joins and the queue all come
// out in the order of the node-at-a-time BFS: every set, the state of its
// stream and SamplerCost are that BFS's bit for bit
// (GroupedTraversalTest in sampler_oracle_test checks them against it).

#pragma once

#include <array>
#include <cstddef>
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
  /// examines. It is not the number of draws made or sources read: every
  /// traversal reads sources only at live edges, and a count-drawn node
  /// makes one draw plus one per live edge.
  uint64_t edges_examined = 0;
};

/// The live in-edges of a node whose d in-edges are each live independently
/// with one probability p < 1, given q0 = (1 − p)^d, the chance that none
/// is (q0 > 0). One NextDouble inverts the Binomial(d, p) CDF sequentially
/// from q0 (P(k + 1) = P(k)·(d − k)/(k + 1)·p/(1 − p)) for the live count
/// k; a draw that rounding leaves past all d + 1 terms is drawn again, so
/// the count follows the computed terms, normalised, whatever their sum.
/// Floyd's algorithm then picks k distinct slots of [0, d) with
/// one NextBounded each. Given their number, every subset of d equal coins
/// is equally likely, so this is their law. Writes the slots to `slots`
/// (cleared first) in draw order.
void DrawLiveSlots(uint32_t d, double p, double q0, Rng& rng, std::vector<uint32_t>& slots);

/// DrawLiveSlots for a node above the count cap, where (1 − p)^d is below
/// kMinNoLiveInProbability (graph/graph.h): its d slots are cut into blocks
/// of the largest length B with (1 − p)^B at or above the cap (at least
/// one slot, the last block shorter), and each block is drawn on its own.
/// Independent blocks of equal coins are the node's coins, so the law is
/// the same. Costs a log1p and one or two exp per call; 0 < p < 1.
void DrawLiveSlotsInBlocks(uint32_t d, double p, Rng& rng, std::vector<uint32_t>& slots);

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
  template <class Sink>
  void TraverseIc(const BitVector* active, Sink& out, Rng& rng);
  template <class Sink>
  void TraverseLt(const BitVector* active, Sink& out, Rng& rng);

  // A live in-edge from u adds u unless u is already in the set or active
  // (in-edges from active sources are absent from the residual graph).
  // Returns whether u was added.
  template <class Sink>
  bool Join(NodeId u, const BitVector* active, Sink& out) {
    if (visited_.Visited(u) || (active != nullptr && active->Get(u))) return false;
    visited_.MarkVisited(u);
    out.PushNode(u);
    return true;
  }

  // Queued nodes per traversal group, chosen from bench_micro_sampling's
  // youtube rows (8 and 32 measured no faster).
  static constexpr size_t kGroup = 16;
  // Live in-edges a group stages before it joins them early. Under weighted
  // cascade a node has one live in-edge in expectation, so only a group
  // with a hub at p = 1 or above the count cap fills it.
  static constexpr size_t kStagedEdges = 256;

  const DirectedGraph* graph_;
  DiffusionModel model_;
  EpochVisitedSet visited_;
  std::vector<uint32_t> live_slots_;  // DrawLiveSlots scratch
  std::array<EdgeId, kStagedEdges> staged_{};  // the group's live in-edges
  SamplerCost cost_;
};

}  // namespace asti
