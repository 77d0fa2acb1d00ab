#include "sampling/rr_set.h"

#include <cmath>
#include <optional>

#include "sampling/rr_buffer.h"

namespace asti {

template <class Sink>
void RrSampler::TraverseFrom(const BitVector* active, Sink& out, Rng& rng) {
  const DirectedGraph& graph = *graph_;
  // A live in-edge from u adds u unless u is already in the set or active
  // (in-edges from active sources are absent from the residual graph).
  const auto joins = [&](NodeId u) {
    return !visited_.Visited(u) && (active == nullptr || !active->Get(u));
  };
  const auto add = [&](NodeId u) {
    visited_.MarkVisited(u);
    out.PushNode(u);
  };
  size_t head = out.InProgressBegin();
  if (model_ == DiffusionModel::kIndependentCascade) {
    // Reverse BFS; each in-edge of a popped node is live independently.
    while (head < out.PoolSize()) {
      const NodeId v = out.PoolNode(head++);
      auto sources = graph.InNeighbors(v);
      auto probs = graph.InProbabilities(v);
      ++cost_.nodes_visited;
      cost_.edges_examined += sources.size();
      const std::optional<double> uniform = graph.UniformInProbability(v);
      if (uniform && *uniform >= 1.0) {
        // Every in-edge is live; no coin is drawn.
        for (const NodeId u : sources) {
          if (joins(u)) add(u);
        }
      } else if (!uniform || sources.size() < kMinSkipInDegree) {
        // A coin per in-edge; sources are looked up only at live edges.
        for (size_t i = 0; i < sources.size(); ++i) {
          if (rng.NextBernoulli(probs[i]) && joins(sources[i])) add(sources[i]);
        }
      } else {
        // The dead edges before the next live one are Geometric(p):
        // ⌊ln(1−U)/ln(1−p)⌋ (1 − U is exact for a 53-bit U). Compare
        // before casting — with a tiny p the skip exceeds every integer.
        const double log_dead = std::log1p(-*uniform);
        size_t i = 0;
        while (true) {
          const double skip = std::floor(std::log(1.0 - rng.NextDouble()) / log_dead);
          if (skip >= static_cast<double>(sources.size() - i)) break;
          i += static_cast<size_t>(skip);
          if (joins(sources[i])) add(sources[i]);
          ++i;
        }
      }
    }
  } else {
    // LT live-edge: each popped node keeps at most one in-edge, edge i with
    // probability probs[i]; one draw x picks it. Mass on active sources
    // folds into the "no live in-edge" outcome (DESIGN.md §4).
    while (head < out.PoolSize()) {
      const NodeId v = out.PoolNode(head++);
      auto sources = graph.InNeighbors(v);
      auto probs = graph.InProbabilities(v);
      ++cost_.nodes_visited;
      cost_.edges_examined += sources.size();
      double x = rng.NextDouble();
      if (const std::optional<double> uniform = graph.UniformInProbability(v)) {
        // Equal slots of width p: the live edge is slot ⌊x/p⌋, if any.
        const double slot = x / *uniform;
        if (slot < static_cast<double>(sources.size())) {
          const NodeId u = sources[static_cast<size_t>(slot)];
          if (joins(u)) add(u);
        }
        continue;
      }
      for (size_t i = 0; i < sources.size(); ++i) {
        if (x >= probs[i]) {
          x -= probs[i];
          continue;
        }
        if (joins(sources[i])) add(sources[i]);
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
