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
// One value is derived rather than stored: whether all of a node's in-edges
// carry one probability. Both constructors compute it with one O(m) pass
// over the reverse probabilities, so every way a graph is made (builder,
// delta mint, snapshot mmap) agrees on it without a file format carrying
// it. Reverse samplers use it to skip dead in-edges without a
// draw each and to pick an LT live edge in O(1) (sampling/rr_set.h).

#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/bit_vector.h"
#include "util/check.h"

namespace asti {

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
