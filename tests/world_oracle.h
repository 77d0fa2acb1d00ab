// World oracle for the diffusion tests: the per-edge world and the BFS
// that reads every out-edge, as references for the live out-edge CSR and
// the forward walk over it (WorldOracleTest in realization_test and
// forward_sim_test).
//
// ReferenceLiveEdges consumes a world stream the way the per-edge store
// did: IC flips one coin per forward edge in forward order; LT draws one x
// per node with in-edges, in node order, and scans the in-probabilities,
// subtracting each from x until one exceeds it. A library world sampled
// from the same stream must hold exactly these live edges, each source's
// in out-edge order, and leave the stream at the same point.

#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "delta/apply.h"
#include "diffusion/model.h"
#include "diffusion/realization.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "util/bit_vector.h"
#include "util/rng.h"

namespace asti::oracle {

/// Live flag per forward EdgeId.
inline std::vector<bool> ReferenceLiveEdges(const DirectedGraph& graph, DiffusionModel model,
                                            Rng& rng) {
  std::vector<bool> live(graph.NumEdges(), false);
  if (model == DiffusionModel::kIndependentCascade) {
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      const EdgeId first = graph.FirstOutEdge(u);
      auto probs = graph.OutProbabilities(u);
      for (size_t i = 0; i < probs.size(); ++i) {
        if (rng.NextBernoulli(probs[i])) live[first + i] = true;
      }
    }
    return live;
  }
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    auto probs = graph.InProbabilities(v);
    auto edge_ids = graph.InEdgeIds(v);
    if (probs.empty()) continue;
    double x = rng.NextDouble();
    for (size_t i = 0; i < probs.size(); ++i) {
      if (x < probs[i]) {
        live[edge_ids[i]] = true;
        break;
      }
      x -= probs[i];
    }
  }
  return live;
}

/// Each source's live targets, in out-edge order.
inline std::vector<std::vector<NodeId>> ReferenceLiveOut(const DirectedGraph& graph,
                                                         const std::vector<bool>& live) {
  std::vector<std::vector<NodeId>> out(graph.NumNodes());
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    const EdgeId first = graph.FirstOutEdge(u);
    auto targets = graph.OutNeighbors(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (live[first + i]) out[u].push_back(targets[i]);
    }
  }
  return out;
}

/// Whether u -> v is live in `world`.
inline bool Live(const Realization& world, NodeId u, NodeId v) {
  auto targets = world.LiveOutNeighbors(u);
  return std::find(targets.begin(), targets.end(), v) != targets.end();
}

/// The library world as the same per-source lists.
inline std::vector<std::vector<NodeId>> LiveOut(const Realization& world) {
  std::vector<std::vector<NodeId>> out(world.graph().NumNodes());
  for (NodeId u = 0; u < world.graph().NumNodes(); ++u) {
    auto targets = world.LiveOutNeighbors(u);
    out[u].assign(targets.begin(), targets.end());
  }
  return out;
}

/// BFS from `seeds` that reads every out-edge and asks `live` of each;
/// with a non-null `active`, active nodes neither activate nor relay.
/// Returns the activated nodes in discovery order.
inline std::vector<NodeId> ReferencePropagate(const DirectedGraph& graph,
                                              const std::vector<bool>& live,
                                              const std::vector<NodeId>& seeds,
                                              const BitVector* active) {
  std::vector<bool> visited(graph.NumNodes(), false);
  std::vector<NodeId> activated;
  for (const NodeId s : seeds) {
    if ((active != nullptr && active->Get(s)) || visited[s]) continue;
    visited[s] = true;
    activated.push_back(s);
  }
  for (size_t head = 0; head < activated.size(); ++head) {
    const NodeId u = activated[head];
    const EdgeId first = graph.FirstOutEdge(u);
    auto targets = graph.OutNeighbors(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      const NodeId v = targets[i];
      if (active != nullptr && active->Get(v)) continue;
      if (visited[v] || !live[first + i]) continue;
      visited[v] = true;
      activated.push_back(v);
    }
  }
  return activated;
}

/// The oracle's graphs, each LT-compatible:
/// - "wc": a small weighted-cascade surrogate, every node uniform;
/// - "trivalency": mixed in-probabilities from {0.1, 0.01, 0.001};
/// - "wc-reweighted": "wc" with every third edge halved through
///   ApplyDeltaByRebuild, so uniform and mixed nodes side by side;
/// - "uniform": p = 0.05 with in-degrees below 20, so indeg·p < 1 and some
///   LT draws land past the last slot.
inline std::vector<std::pair<std::string, DirectedGraph>> OracleGraphs() {
  std::vector<std::pair<std::string, DirectedGraph>> graphs;
  DirectedGraph wc = MakeSurrogateDataset(DatasetId::kYoutube, 0.01, 3).value();

  EdgeDelta halve;
  for (NodeId u = 0; u < wc.NumNodes(); ++u) {
    const EdgeId first = wc.FirstOutEdge(u);
    auto targets = wc.OutNeighbors(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      if ((first + i) % 3 != 0) continue;
      halve.ops.push_back(DeltaOp{DeltaOpKind::kReweight, u, targets[i],
                                  wc.EdgeProbability(static_cast<EdgeId>(first + i)) / 2});
    }
  }
  DirectedGraph reweighted = ApplyDeltaByRebuild(wc, halve).value();

  Rng structure(5);
  Rng weights(6);
  DirectedGraph trivalency = BuildWeightedGraph(MakeErdosRenyi(300, 1000, structure),
                                                WeightScheme::kTrivalency, 0.1, &weights)
                                 .value();
  DirectedGraph uniform =
      BuildWeightedGraph(MakeErdosRenyi(300, 1500, structure), WeightScheme::kUniform, 0.05)
          .value();

  graphs.emplace_back("wc", std::move(wc));
  graphs.emplace_back("trivalency", std::move(trivalency));
  graphs.emplace_back("wc-reweighted", std::move(reweighted));
  graphs.emplace_back("uniform", std::move(uniform));
  return graphs;
}

}  // namespace asti::oracle
