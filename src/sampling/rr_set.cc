#include "sampling/rr_set.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>

#include "sampling/rr_buffer.h"

namespace asti {

namespace {

// DrawLiveSlots for d coins numbered from `first`, appended to `slots`;
// Floyd's search reads only the slots this call appends.
void AppendLiveSlots(uint32_t d, double p, double q0, uint32_t first, Rng& rng,
                     std::vector<uint32_t>& slots) {
  ASM_DCHECK(q0 > 0.0);
  // Sequential inversion: step past P(0), P(1), ... until the draw falls
  // inside one. Rounding can leave the draw past all d + 1 computed terms;
  // it is then drawn again, which keeps the law that of the computed terms
  // (normalised) instead of piling the lost mass on d. The odds are needed
  // only past P(0).
  uint32_t live = 0;
  for (double u = rng.NextDouble(); u >= q0; u = rng.NextDouble()) {
    const double odds = p / (1.0 - p);
    double mass = q0;
    do {
      u -= mass;
      mass *= static_cast<double>(d - live) * odds / static_cast<double>(live + 1);
      ++live;
    } while (u >= mass && live < d);
    if (u < mass) break;
    live = 0;
  }
  // Floyd: for j = d − live .. d − 1 draw t in [0, j]; keep t, or j if t is
  // already kept (j never is). Every live-subset comes out equally likely.
  const auto begin = static_cast<std::ptrdiff_t>(slots.size());
  for (uint32_t j = d - live; j < d; ++j) {
    const uint32_t t = first + static_cast<uint32_t>(rng.NextBounded(j + 1));
    const bool kept = std::find(slots.begin() + begin, slots.end(), t) != slots.end();
    slots.push_back(kept ? first + j : t);
  }
}

}  // namespace

void DrawLiveSlots(uint32_t d, double p, double q0, Rng& rng, std::vector<uint32_t>& slots) {
  slots.clear();
  AppendLiveSlots(d, p, q0, 0, rng, slots);
}

void DrawLiveSlotsInBlocks(uint32_t d, double p, Rng& rng, std::vector<uint32_t>& slots) {
  ASM_DCHECK(p > 0.0 && p < 1.0);
  slots.clear();
  // The longest block whose chance of no live edge stays at the cap; at
  // least one edge, at most d.
  const double log_dead = std::log1p(-p);
  const double longest = std::floor(std::log(kMinNoLiveInProbability) / log_dead);
  const uint32_t block =
      longest >= d ? d : std::max<uint32_t>(1, static_cast<uint32_t>(longest));
  const double q_block = std::exp(block * log_dead);
  for (uint32_t first = 0; first < d; first += block) {
    const uint32_t len = std::min(block, d - first);
    AppendLiveSlots(len, p, len == block ? q_block : std::exp(len * log_dead), first, rng,
                    slots);
  }
}

template <class Sink>
void RrSampler::TraverseFrom(const BitVector* active, Sink& out, Rng& rng) {
  if (model_ == DiffusionModel::kIndependentCascade) {
    TraverseIc(active, out, rng);
  } else {
    TraverseLt(active, out, rng);
  }
}

template <class Sink>
void RrSampler::TraverseIc(const BitVector* active, Sink& out, Rng& rng) {
  // Reverse BFS, a group at a time (rr_set.h); each in-edge of a visited
  // node is live independently.
  const DirectedGraph& graph = *graph_;
  const EdgeId* const offsets = graph.InOffsets().data();
  const NodeId* const sources = graph.InSources().data();
  const double* const probs = graph.InProbs().data();
  const double* const no_live = graph.NoLiveInProbabilities().data();
  // The group's live in-edges, as reverse-CSR positions in draw order. A
  // full array is joined before the group's draws end, in the same order.
  size_t num_staged = 0;
  const auto join_staged = [&] {
    for (size_t i = 0; i < num_staged; ++i) {
      const NodeId u = sources[staged_[i]];
      if (!Join(u, active, out)) continue;
      __builtin_prefetch(offsets + u);
      __builtin_prefetch(no_live + u);
    }
    num_staged = 0;
  };
  const auto stage = [&](EdgeId e) {
    if (num_staged == staged_.size()) join_staged();
    __builtin_prefetch(sources + e);
    staged_[num_staged++] = e;
  };
  size_t head = out.InProgressBegin();
  while (head < out.PoolSize()) {
    const size_t end = std::min(head + kGroup, out.PoolSize());
    for (size_t i = head; i < end; ++i) __builtin_prefetch(probs + offsets[out.PoolNode(i)]);
    for (; head < end; ++head) {
      const NodeId v = out.PoolNode(head);
      const EdgeId first = offsets[v];
      const EdgeId last = offsets[v + 1];
      const auto degree = static_cast<uint32_t>(last - first);
      ++cost_.nodes_visited;
      cost_.edges_examined += degree;
      if (const double q0 = no_live[v]; q0 > 0.0) {
        // One probability p < 1 under the count cap: draw the live slots.
        DrawLiveSlots(degree, probs[first], q0, rng, live_slots_);
        for (const uint32_t slot : live_slots_) stage(first + slot);
      } else if (const std::optional<double> p = graph.UniformInProbability(v); !p) {
        // A coin per in-edge.
        for (EdgeId e = first; e < last; ++e) {
          if (rng.NextBernoulli(probs[e])) stage(e);
        }
      } else if (*p == 1.0) {
        // Every in-edge is live; no coin is drawn.
        for (EdgeId e = first; e < last; ++e) stage(e);
      } else {
        // One probability p < 1 above the count cap: draw block by block.
        DrawLiveSlotsInBlocks(degree, *p, rng, live_slots_);
        for (const uint32_t slot : live_slots_) stage(first + slot);
      }
    }
    join_staged();
  }
}

template <class Sink>
void RrSampler::TraverseLt(const BitVector* active, Sink& out, Rng& rng) {
  // LT live-edge, a group at a time (rr_set.h): each visited node keeps at
  // most one in-edge, edge i with probability probs[i]; one draw x picks
  // it. Mass on active sources folds into the "no live in-edge" outcome:
  // the residual graph drops active nodes with their edges, so a pick that
  // lands on one leaves v with no live in-edge there, like the leftover
  // 1 - sum(p) mass.
  const DirectedGraph& graph = *graph_;
  const EdgeId* const offsets = graph.InOffsets().data();
  const NodeId* const sources = graph.InSources().data();
  const double* const probs = graph.InProbs().data();
  static_assert(kGroup <= kStagedEdges, "a group's LT live edges fit in staged_");
  size_t head = out.InProgressBegin();
  while (head < out.PoolSize()) {
    const size_t end = std::min(head + kGroup, out.PoolSize());
    for (size_t i = head; i < end; ++i) __builtin_prefetch(probs + offsets[out.PoolNode(i)]);
    size_t num_staged = 0;
    for (; head < end; ++head) {
      const NodeId v = out.PoolNode(head);
      const EdgeId first = offsets[v];
      const EdgeId last = offsets[v + 1];
      ++cost_.nodes_visited;
      cost_.edges_examined += last - first;
      double x = rng.NextDouble();
      EdgeId live = last;  // none
      if (const std::optional<double> uniform = graph.UniformInProbability(v)) {
        // Equal slots of width p: the live edge is slot ⌊x/p⌋, if any.
        const double slot = x / *uniform;
        if (slot < static_cast<double>(last - first)) live = first + static_cast<EdgeId>(slot);
      } else {
        for (EdgeId e = first; e < last; ++e) {
          if (x >= probs[e]) {
            x -= probs[e];
            continue;
          }
          live = e;
          break;  // at most one live in-edge per node
        }
      }
      if (live == last) continue;
      __builtin_prefetch(sources + live);
      staged_[num_staged++] = live;
    }
    for (size_t i = 0; i < num_staged; ++i) {
      const NodeId u = sources[staged_[i]];
      if (Join(u, active, out)) __builtin_prefetch(offsets + u);
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
