// Node-at-a-time reverse sampler: the reference for the grouped traversal
// of sampling/rr_set.cc (GroupedTraversalTest in sampler_oracle_test).
//
// This is the traversal the library ran before it took the queue a group at
// a time: pop one node, make its draws, join its live sources, pop the
// next. It draws with the library's rules (DrawLiveSlots under the count
// cap, DrawLiveSlotsInBlocks above it, no draw at p = 1, a coin per in-edge
// at mixed nodes; LT's one x, slot ⌊x/p⌋ at uniform nodes) and the
// library's root draws, so an RR or mRR set sampled here from a stream must
// equal the library's set from a copy of that stream, node for node, with
// the same SamplerCost and the stream left at the same point.

#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "diffusion/model.h"
#include "graph/graph.h"
#include "sampling/rr_set.h"
#include "util/bit_vector.h"
#include "util/rng.h"

namespace asti::oracle {

class ReferenceSampler {
 public:
  ReferenceSampler(const DirectedGraph& graph, DiffusionModel model)
      : graph_(&graph), model_(model), in_set_(graph.NumNodes(), 0) {}

  const SamplerCost& cost() const { return cost_; }

  /// RrSampler::Generate's set: one root, candidates[NextBounded(|C|)].
  std::vector<NodeId> Rr(const std::vector<NodeId>& candidates, const BitVector* active,
                         Rng& rng) {
    std::vector<NodeId> set;
    Add(candidates[rng.NextBounded(candidates.size())], set);
    return Finish(active, std::move(set), rng);
  }

  /// MrrSampler::Generate's set: k distinct roots by rejection while k is
  /// at most half of |C|, else by a partial Fisher-Yates over a copy.
  std::vector<NodeId> Mrr(const std::vector<NodeId>& candidates, const BitVector* active,
                          NodeId num_roots, Rng& rng) {
    std::vector<NodeId> set;
    const size_t population = candidates.size();
    if (num_roots <= population / 2) {
      while (set.size() < num_roots) {
        const NodeId root = candidates[rng.NextBounded(population)];
        if (!in_set_[root]) Add(root, set);
      }
    } else {
      std::vector<NodeId> scratch = candidates;
      for (NodeId i = 0; i < num_roots; ++i) {
        std::swap(scratch[i], scratch[i + rng.NextBounded(population - i)]);
        Add(scratch[i], set);
      }
    }
    return Finish(active, std::move(set), rng);
  }

 private:
  void Add(NodeId u, std::vector<NodeId>& set) {
    in_set_[u] = 1;
    set.push_back(u);
  }

  void Join(NodeId u, const BitVector* active, std::vector<NodeId>& set) {
    if (in_set_[u] || (active != nullptr && active->Get(u))) return;
    Add(u, set);
  }

  std::vector<NodeId> Finish(const BitVector* active, std::vector<NodeId> set, Rng& rng) {
    if (model_ == DiffusionModel::kIndependentCascade) {
      TraverseIc(active, set, rng);
    } else {
      TraverseLt(active, set, rng);
    }
    for (const NodeId v : set) in_set_[v] = 0;
    return set;
  }

  // Reverse BFS; each in-edge of a popped node is live independently.
  void TraverseIc(const BitVector* active, std::vector<NodeId>& set, Rng& rng) {
    const DirectedGraph& graph = *graph_;
    const std::span<const double> no_live = graph.NoLiveInProbabilities();
    for (size_t head = 0; head < set.size(); ++head) {
      const NodeId v = set[head];
      const std::span<const NodeId> sources = graph.InNeighbors(v);
      const std::span<const double> probs = graph.InProbabilities(v);
      ++cost_.nodes_visited;
      cost_.edges_examined += sources.size();
      const auto degree = static_cast<uint32_t>(sources.size());
      if (const double q0 = no_live[v]; q0 > 0.0) {
        DrawLiveSlots(degree, probs[0], q0, rng, slots_);
        for (const uint32_t slot : slots_) Join(sources[slot], active, set);
      } else if (const std::optional<double> p = graph.UniformInProbability(v); !p) {
        for (size_t i = 0; i < sources.size(); ++i) {
          if (rng.NextBernoulli(probs[i])) Join(sources[i], active, set);
        }
      } else if (*p == 1.0) {
        for (const NodeId u : sources) Join(u, active, set);
      } else {
        DrawLiveSlotsInBlocks(degree, *p, rng, slots_);
        for (const uint32_t slot : slots_) Join(sources[slot], active, set);
      }
    }
  }

  // LT live-edge: each popped node keeps at most one in-edge, picked by one
  // draw x.
  void TraverseLt(const BitVector* active, std::vector<NodeId>& set, Rng& rng) {
    const DirectedGraph& graph = *graph_;
    for (size_t head = 0; head < set.size(); ++head) {
      const NodeId v = set[head];
      const std::span<const NodeId> sources = graph.InNeighbors(v);
      const std::span<const double> probs = graph.InProbabilities(v);
      ++cost_.nodes_visited;
      cost_.edges_examined += sources.size();
      double x = rng.NextDouble();
      if (const std::optional<double> uniform = graph.UniformInProbability(v)) {
        const double slot = x / *uniform;
        if (slot < static_cast<double>(sources.size())) {
          Join(sources[static_cast<size_t>(slot)], active, set);
        }
        continue;
      }
      for (size_t i = 0; i < sources.size(); ++i) {
        if (x >= probs[i]) {
          x -= probs[i];
          continue;
        }
        Join(sources[i], active, set);
        break;
      }
    }
  }

  const DirectedGraph* graph_;
  DiffusionModel model_;
  std::vector<char> in_set_;
  std::vector<uint32_t> slots_;
  SamplerCost cost_;
};

}  // namespace asti::oracle
