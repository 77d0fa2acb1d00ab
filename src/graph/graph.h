// Immutable directed probabilistic graph in CSR form.
//
// Both adjacency directions are materialized: forward (out-edges) drives
// influence simulation, reverse (in-edges) drives RR / mRR sampling. The
// reverse CSR keeps, for every in-edge, the EdgeId of the corresponding
// forward edge so realizations indexed by forward EdgeId can be consulted
// from either direction.
//
// Storage is span-backed: the graph itself holds only read-only views over
// the seven CSR arrays plus one type-erased keepalive owning the bytes.
// Heap-resident graphs (GraphBuilder, delta mint) span a GraphStorage of
// vectors; snapshot-mapped graphs (src/store/) span an mmap'd file
// directly. Every traversal goes through the same spans, so the two paths
// are bit-identical by construction.
//
// Three values are derived rather than stored. One is whether all of a
// node's in-edges carry one probability: reverse samplers use it to pick an
// LT live edge in O(1), to skip the coins at p = 1 and to draw an IC node
// above the count cap block by block (sampling/rr_set.h). The second is
// the order of nodes by out-probability mass, which TRIM's one-hop
// certificate walks (core/trim.h). The third is each uniform node's
// chance (1 − p)^d that none of its d in-edges is live, from which IC
// reverse traversal draws its live in-edges at once. Both constructors
// compute the bit and the largest mass in O(m); the order (O(m + n log n))
// and the no-live table (O(n), n doubles) are filled on their first read,
// once per graph and its copies, so a graph whose rounds never walk the
// order never sorts and one that is never sampled under IC (LT serving,
// delta mints, snapshot opens) never fills the table. Every way a graph is
// made (builder, delta mint, snapshot mmap) agrees on them without a file
// format carrying them.

#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/bit_vector.h"
#include "util/check.h"

namespace asti {

/// Count cap of the IC count draw: a uniform node draws its live in-edges at
/// once only while (1 − p)^d, its chance of no live in-edge, is at least
/// this; above the cap it draws them in blocks that each stay at the cap.
/// Since (1 − p)^d ≤ e^(−d·p), the cap keeps the expected count per draw
/// under 30·ln 2 ≈ 20.8, so the inversion walk and Floyd's search stay
/// short. Measured per node (one thread, g++ 12 -O2), the draw cost about
/// 15 ns plus 10 ns per expected live edge, up to 200 ns at the cap, and a
/// coin 2–3 ns per in-edge: under the cap a node of 256 in-edges draws
/// 2.5–33× faster than it flips, and every weighted-cascade node
/// (d·p = 1, (1 − 1/d)^d ≥ 1/4) is far inside it. Above it (the uniform
/// surrogates, p = 0.1, have hubs of 198–1,212 in-edges there), an RR set
/// rooted at a hub of d = 200–10,000 in-edges cost about what the former
/// geometric skip did, 0.6–34 against 0.6–26 µs at p = 0.1 and 0.5–2.8
/// against 0.5–3.4 µs at p = 0.01 (d ≥ 2,100), where a coin per in-edge
/// cost 1.0–53 and 5.4–29 µs. There is no degree floor: coins cost less
/// per node in isolation at a few in-edges (d = 4: 11–12 ns against
/// 21–74 ns), yet sending weighted-cascade nodes under 8 or 16 in-edges to
/// coins made IC set generation slower (3–58 %).
inline constexpr double kMinNoLiveInProbability = 0x1p-30;

/// Owned backing arrays for a heap-resident graph. GraphBuilder and
/// ApplyDelta fill one of these and hand it to DirectedGraph; mmap-backed
/// graphs never materialize it.
struct GraphStorage {
  std::vector<EdgeId> out_offsets;   // size n+1
  std::vector<NodeId> out_targets;   // size m
  std::vector<double> out_probs;     // size m
  std::vector<EdgeId> in_offsets;    // size n+1
  std::vector<NodeId> in_sources;    // size m
  std::vector<double> in_probs;      // size m
  std::vector<EdgeId> in_edge_ids;   // size m; forward EdgeId per in-edge
};

/// CSR graph; construct through GraphBuilder, ApplyDelta, or the snapshot
/// store. Copying is cheap (spans + a shared keepalive) and the
/// copy shares immutable storage with the original.
class DirectedGraph {
 public:
  DirectedGraph() = default;

  /// Heap-backed graph: adopts `storage` (which must hold a consistent CSR
  /// pair for `num_nodes` nodes) and spans it.
  DirectedGraph(NodeId num_nodes, std::shared_ptr<const GraphStorage> storage)
      : num_nodes_(num_nodes),
        out_offsets_(storage->out_offsets),
        out_targets_(storage->out_targets),
        out_probs_(storage->out_probs),
        in_offsets_(storage->in_offsets),
        in_sources_(storage->in_sources),
        in_probs_(storage->in_probs),
        in_edge_ids_(storage->in_edge_ids),
        storage_(std::move(storage)) {
    ASM_CHECK(out_offsets_.size() == size_t{num_nodes_} + 1);
    ASM_CHECK(in_offsets_.size() == size_t{num_nodes_} + 1);
    DeriveUniformIn();
    DeriveMaxOutMass();
  }

  /// View-backed graph: spans caller-described memory. `keepalive` must own
  /// every byte the spans reference (e.g. an mmap'd snapshot file) and
  /// keeps it resident for the graph's — and every copy's — lifetime.
  DirectedGraph(NodeId num_nodes, std::span<const EdgeId> out_offsets,
                std::span<const NodeId> out_targets, std::span<const double> out_probs,
                std::span<const EdgeId> in_offsets, std::span<const NodeId> in_sources,
                std::span<const double> in_probs, std::span<const EdgeId> in_edge_ids,
                std::shared_ptr<const void> keepalive)
      : num_nodes_(num_nodes),
        out_offsets_(out_offsets),
        out_targets_(out_targets),
        out_probs_(out_probs),
        in_offsets_(in_offsets),
        in_sources_(in_sources),
        in_probs_(in_probs),
        in_edge_ids_(in_edge_ids),
        storage_(std::move(keepalive)) {
    ASM_CHECK(out_offsets_.size() == size_t{num_nodes_} + 1);
    ASM_CHECK(in_offsets_.size() == size_t{num_nodes_} + 1);
    DeriveUniformIn();
    DeriveMaxOutMass();
  }

  /// Number of nodes.
  NodeId NumNodes() const { return num_nodes_; }
  /// Number of directed edges.
  EdgeId NumEdges() const { return static_cast<EdgeId>(out_targets_.size()); }

  uint32_t OutDegree(NodeId u) const {
    ASM_DCHECK(u < num_nodes_);
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  uint32_t InDegree(NodeId v) const {
    ASM_DCHECK(v < num_nodes_);
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Out-neighbors of u.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    ASM_DCHECK(u < num_nodes_);
    return out_targets_.subspan(out_offsets_[u], out_offsets_[u + 1] - out_offsets_[u]);
  }
  /// Propagation probabilities of u's out-edges (parallel to OutNeighbors).
  std::span<const double> OutProbabilities(NodeId u) const {
    ASM_DCHECK(u < num_nodes_);
    return out_probs_.subspan(out_offsets_[u], out_offsets_[u + 1] - out_offsets_[u]);
  }
  /// EdgeId of u's first out-edge; out-edges of u are contiguous from here.
  EdgeId FirstOutEdge(NodeId u) const {
    ASM_DCHECK(u < num_nodes_);
    return out_offsets_[u];
  }

  /// In-neighbors (sources) of v.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    ASM_DCHECK(v < num_nodes_);
    return in_sources_.subspan(in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]);
  }
  /// Propagation probabilities of v's in-edges (parallel to InNeighbors).
  std::span<const double> InProbabilities(NodeId v) const {
    ASM_DCHECK(v < num_nodes_);
    return in_probs_.subspan(in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]);
  }
  /// Forward EdgeIds of v's in-edges (parallel to InNeighbors).
  std::span<const EdgeId> InEdgeIds(NodeId v) const {
    ASM_DCHECK(v < num_nodes_);
    return in_edge_ids_.subspan(in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]);
  }
  /// The one probability p every in-edge of v carries, when v has in-edges
  /// and they all carry the same p in (0, 1] (weighted cascade: 1/indeg(v));
  /// nullopt for indeg 0 and for mixed in-probabilities. Derived at
  /// construction (one bit per node, shared by copies); p is read from v's
  /// first in-probability.
  std::optional<double> UniformInProbability(NodeId v) const {
    ASM_DCHECK(v < num_nodes_);
    if (!uniform_in_->Get(v)) return std::nullopt;
    return in_probs_[in_offsets_[v]];
  }

  /// Every node by descending out-probability mass μ_v = Σ p over v's
  /// out-edges, ties by ascending id. Sorted on the first call, once for
  /// the graph and all its copies (thread-safe).
  std::span<const NodeId> NodesByOutMass() const {
    if (!derived_) return {};
    std::call_once(derived_->out_mass_once, [this] { SortByOutMass(); });
    return derived_->out_mass_order;
  }
  /// μ of NodesByOutMass()'s first node: the largest out-probability mass.
  /// Derived at construction; reading it never sorts.
  double MaxOutMass() const { return max_out_mass_; }

  /// Per node v, (1 − p)^d = exp(d·log1p(−p)) when v's d in-edges all carry
  /// one p < 1 and that value is at least kMinNoLiveInProbability; 0 at
  /// every other node (mixed, p = 1, above the count cap, no in-edges).
  /// Filled on the first call, once for the graph and all its copies
  /// (thread-safe); never persisted.
  std::span<const double> NoLiveInProbabilities() const {
    if (!derived_) return {};
    std::call_once(derived_->no_live_once, [this] { DeriveNoLiveIn(); });
    return derived_->no_live_in;
  }

  /// Target node of a forward edge.
  NodeId EdgeTarget(EdgeId e) const {
    ASM_DCHECK(e < NumEdges());
    return out_targets_[e];
  }
  /// Probability of a forward edge.
  double EdgeProbability(EdgeId e) const {
    ASM_DCHECK(e < NumEdges());
    return out_probs_[e];
  }

  // Whole-array views, for persistence (the snapshot writer serializes the
  // CSR arrays verbatim).
  std::span<const EdgeId> OutOffsets() const { return out_offsets_; }
  std::span<const NodeId> OutTargets() const { return out_targets_; }
  std::span<const double> OutProbs() const { return out_probs_; }
  std::span<const EdgeId> InOffsets() const { return in_offsets_; }
  std::span<const NodeId> InSources() const { return in_sources_; }
  std::span<const double> InProbs() const { return in_probs_; }
  std::span<const EdgeId> InEdgeIdsFlat() const { return in_edge_ids_; }

  /// Sum of in-edge probabilities of v (LT models require this <= 1).
  double InProbabilitySum(NodeId v) const;

  /// All edges as a flat list (source recovered from CSR); O(m).
  std::vector<Edge> ToEdgeList() const;

 private:
  // Fills uniform_in_ from the reverse CSR; one O(m) pass.
  void DeriveUniformIn();
  // Fills max_out_mass_ and an empty derived_; one O(m) pass.
  void DeriveMaxOutMass();
  // Fills derived_->out_mass_order; O(m + n log n), run once by
  // NodesByOutMass.
  void SortByOutMass() const;
  // Fills derived_->no_live_in; O(n), run once by NoLiveInProbabilities.
  void DeriveNoLiveIn() const;
  // μ_v summed in edge order; 0 for a malformed run, a negative sum or NaN.
  double OutMass(NodeId v) const;

  // The values derived on their first read, shared by every copy.
  struct DerivedOnRead {
    std::once_flag out_mass_once;
    std::vector<NodeId> out_mass_order;
    std::once_flag no_live_once;
    std::vector<double> no_live_in;
  };

  NodeId num_nodes_ = 0;
  // Forward CSR.
  std::span<const EdgeId> out_offsets_;
  std::span<const NodeId> out_targets_;
  std::span<const double> out_probs_;
  // Reverse CSR.
  std::span<const EdgeId> in_offsets_;
  std::span<const NodeId> in_sources_;
  std::span<const double> in_probs_;
  std::span<const EdgeId> in_edge_ids_;
  /// Bit v set iff UniformInProbability(v) has a value.
  std::shared_ptr<const BitVector> uniform_in_;
  /// NodesByOutMass() and NoLiveInProbabilities(), each filled on its
  /// first read and shared by copies.
  std::shared_ptr<DerivedOnRead> derived_;
  double max_out_mass_ = 0.0;
  /// Owns the spanned bytes: a GraphStorage for heap graphs, a mapped
  /// snapshot payload for mmap graphs.
  std::shared_ptr<const void> storage_;
};

/// Order-sensitive digest of a forward CSR (node count, edge count,
/// offsets, targets, probability bit patterns). Binds a delta to the exact
/// graph it was staged against: delta files persist it (base_digest,
/// result_digest), so its value must never change. Distinct from the snapshot
/// store's section-CRC graph digest — this one is computable for any
/// DirectedGraph without a file.
uint64_t ForwardCsrDigest(const DirectedGraph& graph);

}  // namespace asti
