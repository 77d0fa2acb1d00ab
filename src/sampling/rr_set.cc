#include "sampling/rr_set.h"

#include "sampling/rr_buffer.h"

namespace asti {

template <class Sink>
void RrSampler::TraverseFrom(const BitVector* active, Sink& out, Rng& rng) {
  const DirectedGraph& graph = *graph_;
  size_t head = out.InProgressBegin();
  if (model_ == DiffusionModel::kIndependentCascade) {
    // Reverse BFS; each in-edge of a popped node flips an independent coin.
    while (head < out.PoolSize()) {
      const NodeId v = out.PoolNode(head++);
      auto sources = graph.InNeighbors(v);
      auto probs = graph.InProbabilities(v);
      ++cost_.nodes_visited;
      cost_.edges_examined += sources.size();
      for (size_t i = 0; i < sources.size(); ++i) {
        const NodeId u = sources[i];
        if (visited_.Visited(u)) continue;
        if (active != nullptr && active->Get(u)) continue;
        if (!rng.NextBernoulli(probs[i])) continue;
        visited_.MarkVisited(u);
        out.PushNode(u);
      }
    }
  } else {
    // LT live-edge: each popped node keeps at most one in-edge. In-edges
    // from active sources are absent from the residual graph; their mass
    // folds into the "no live in-edge" outcome (DESIGN.md §4).
    while (head < out.PoolSize()) {
      const NodeId v = out.PoolNode(head++);
      auto sources = graph.InNeighbors(v);
      auto probs = graph.InProbabilities(v);
      ++cost_.nodes_visited;
      cost_.edges_examined += sources.size();
      double x = rng.NextDouble();
      for (size_t i = 0; i < sources.size(); ++i) {
        if (x >= probs[i]) {
          x -= probs[i];
          continue;
        }
        const NodeId u = sources[i];
        const bool excluded =
            (active != nullptr && active->Get(u)) || visited_.Visited(u);
        if (!excluded) {
          visited_.MarkVisited(u);
          out.PushNode(u);
        }
        break;  // at most one live in-edge per node
      }
    }
  }
}

template <class Sink>
void RrSampler::Generate(const std::vector<NodeId>& candidates, const BitVector* active,
                         Sink& out, Rng& rng) {
  ASM_CHECK(!candidates.empty());
  visited_.Reset();
  const NodeId root = candidates[rng.NextBounded(candidates.size())];
  ASM_DCHECK(active == nullptr || !active->Get(root));
  visited_.MarkVisited(root);
  out.PushNode(root);
  TraverseFrom(active, out, rng);
  out.SealSet();
}

// The two sinks of the library: a collection (direct callers) and the
// worker-local staging buffer (ParallelRrSampler).
template void RrSampler::TraverseFrom<RrCollection>(const BitVector*, RrCollection&, Rng&);
template void RrSampler::TraverseFrom<RrSetBuffer>(const BitVector*, RrSetBuffer&, Rng&);
template void RrSampler::Generate<RrCollection>(const std::vector<NodeId>&,
                                                const BitVector*, RrCollection&, Rng&);
template void RrSampler::Generate<RrSetBuffer>(const std::vector<NodeId>&,
                                               const BitVector*, RrSetBuffer&, Rng&);

}  // namespace asti
