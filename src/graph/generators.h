// Synthetic graph generators.
//
// Random families: the Chung–Lu generators build the power-law surrogates
// that stand in for the paper's SNAP datasets, which cannot be fetched
// offline (graph/datasets.cc); Erdős–Rényi and Barabási–Albert back the
// tests and examples. Deterministic fixtures (path, star, ...) back unit
// tests, including the exact example graphs from Figures 1 and 2 of the
// paper.
//
// Generators emit an EdgeSkeleton (structure only, probability 1.0); a
// weight model pass then assigns propagation probabilities.

#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/rng.h"
#include "util/status.h"

namespace asti {

/// Graph structure prior to weight assignment.
struct EdgeSkeleton {
  NodeId num_nodes = 0;
  std::vector<Edge> edges;  // probability == 1.0 placeholder
};

// ---------------------------------------------------------------------------
// Deterministic fixtures.
// ---------------------------------------------------------------------------

/// 0 -> 1 -> ... -> n-1.
EdgeSkeleton MakePath(NodeId n);

/// 0 -> 1 -> ... -> n-1 -> 0.
EdgeSkeleton MakeCycle(NodeId n);

/// Center node 0 with edges 0 -> {1..n-1}.
EdgeSkeleton MakeStar(NodeId n);

/// All ordered pairs (u, v), u != v.
EdgeSkeleton MakeComplete(NodeId n);

/// The 6-node social graph of Figure 1 in the paper, with the printed
/// probabilities: v1->v4 (.9), v1->v6 (.3), v4->v3 (.1), v6->v5 (.5),
/// v3->v5 (.4), v5->v2 (.6), v2->v1 (.7). Nodes are 0-indexed (v1 == 0).
StatusOr<DirectedGraph> MakePaperFigure1Graph();

/// The 4-node graph of Figure 2 / Example 2.3: v1->v2 (.5), v1->v3 (.5),
/// v2->v4 (1), v3->v4 (1). Nodes are 0-indexed (v1 == 0).
StatusOr<DirectedGraph> MakePaperFigure2Graph();

// ---------------------------------------------------------------------------
// Random families.
// ---------------------------------------------------------------------------

/// G(n, m): m distinct directed edges chosen uniformly (no self-loops).
EdgeSkeleton MakeErdosRenyi(NodeId n, size_t num_edges, Rng& rng);

/// Barabási–Albert preferential attachment with `attach` links per new node.
/// Produces an undirected structure expanded into both directions
/// (the paper's treatment of undirected datasets).
EdgeSkeleton MakeBarabasiAlbert(NodeId n, uint32_t attach, Rng& rng);

/// Chung–Lu fixed expected-degree power-law graph: node weights
/// w_i ∝ (i + i0)^(-1/(exponent-1)), ~target_edges directed edges sampled
/// proportional to w_u * w_v, deduplicated.
EdgeSkeleton MakeChungLu(NodeId n, size_t target_edges, double exponent, Rng& rng);

/// Two-sided Chung–Lu: sources follow a power law with `out_exponent` and
/// targets one with `in_exponent`; an exponent <= 0 selects that side
/// uniformly. A power-law in / uniform-out graph has heavy-tailed
/// in-degrees without explosive out-hubs — the cascade-tempered regime of
/// dense assortative social networks, which the LiveJournal surrogate
/// needs: a Chung–Lu graph with power-law out-degrees at its density would
/// put nearly every node in one giant cascade.
EdgeSkeleton MakeTwoSidedChungLu(NodeId n, size_t target_edges, double out_exponent,
                                 double in_exponent, Rng& rng);

// ---------------------------------------------------------------------------
// Weight-model application.
// ---------------------------------------------------------------------------

/// Probability assignment schemes for BuildWeightedGraph.
enum class WeightScheme { kWeightedCascade, kUniform, kTrivalency };

/// Applies a weight scheme to the skeleton and finalizes the CSR graph.
/// `uniform_p` is consulted only for kUniform; `rng` only for kTrivalency.
StatusOr<DirectedGraph> BuildWeightedGraph(EdgeSkeleton skeleton, WeightScheme scheme,
                                           double uniform_p = 0.1, Rng* rng = nullptr);

}  // namespace asti
