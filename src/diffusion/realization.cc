#include "diffusion/realization.h"

#include <optional>

namespace asti {

Status ValidateLtCompatible(const DirectedGraph& graph) {
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    const double sum = graph.InProbabilitySum(v);
    if (sum > 1.0 + 1e-9) {
      return Status::FailedPrecondition(
          "node " + std::to_string(v) + " has in-probability sum " +
          std::to_string(sum) + " > 1; the LT model is undefined on this graph");
    }
  }
  return Status::OK();
}

Realization Realization::SampleIc(const DirectedGraph& graph, Rng& rng) {
  Realization realization(graph);
  std::vector<NodeId>& live = realization.live_targets_;
  const std::span<const EdgeId> offsets = graph.OutOffsets();
  const std::span<const NodeId> targets = graph.OutTargets();
  const std::span<const double> probs = graph.OutProbs();
  // Σ p live edges are expected, at most n under weighted cascade, so one
  // allocation usually holds the world.
  live.reserve(graph.NumNodes());
  // One pass over the forward edges without a branch per coin: each target
  // is written at the live count, which its coin then advances, so a dead
  // edge's target is overwritten by the next. The array grows by u's
  // out-degree before u's coins, and is cut to the live count at the end.
  size_t count = 0;
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    const EdgeId first = offsets[u];
    const EdgeId last = offsets[u + 1];
    if (live.size() < count + (last - first)) live.resize(count + (last - first));
    NodeId* const slots = live.data();
    for (EdgeId e = first; e < last; ++e) {
      slots[count] = targets[e];
      count += rng.NextBernoulli(probs[e]) ? 1 : 0;
    }
    realization.live_offsets_[u + 1] = static_cast<EdgeId>(count);
  }
  live.resize(count);
  return realization;
}

Realization Realization::SampleLt(const DirectedGraph& graph, Rng& rng) {
  Realization realization(graph);
  const NodeId n = graph.NumNodes();
  std::vector<EdgeId>& offsets = realization.live_offsets_;
  // Pass 1, node order (the draw order): v's chosen source, counted at
  // offsets[source].
  std::vector<NodeId> chosen(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    auto sources = graph.InNeighbors(v);
    if (sources.empty()) continue;
    ASM_DCHECK(graph.InProbabilitySum(v) <= 1.0 + 1e-9)
        << "LT requires in-probabilities to sum to <= 1 at node " << v;
    double x = rng.NextDouble();
    size_t slot = sources.size();  // none
    if (const std::optional<double> uniform = graph.UniformInProbability(v)) {
      // Compare before casting: a tiny p puts x/p past every integer.
      const double index = x / *uniform;
      if (index < static_cast<double>(sources.size())) slot = static_cast<size_t>(index);
    } else {
      auto probs = graph.InProbabilities(v);
      for (size_t i = 0; i < probs.size(); ++i) {
        if (x < probs[i]) {
          slot = i;
          break;
        }
        x -= probs[i];
      }
    }
    if (slot == sources.size()) continue;
    chosen[v] = sources[slot];
    ++offsets[sources[slot]];
  }
  // Pass 2: offsets[u] becomes the end of u's run, then each node, taken
  // in descending order, is placed at the back of its source's run, which
  // leaves every run ascending and offsets[u] at its start.
  for (NodeId u = 1; u < n; ++u) offsets[u] += offsets[u - 1];
  if (n > 0) offsets[n] = offsets[n - 1];
  realization.live_targets_.resize(offsets[n]);
  for (NodeId v = n; v-- > 0;) {
    if (chosen[v] != kInvalidNode) realization.live_targets_[--offsets[chosen[v]]] = v;
  }
  return realization;
}

}  // namespace asti
