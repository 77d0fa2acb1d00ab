// Mutable accumulator that produces an immutable DirectedGraph.

#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace asti {

/// Collects edges and finalizes them into CSR form.
///
/// Self-loops are rejected; duplicate (u, v) pairs are either rejected or
/// merged (keeping the maximum probability) depending on the policy given
/// to Build().
class GraphBuilder {
 public:
  enum class DuplicatePolicy { kReject, kKeepMaxProbability };

  /// Creates a builder for a graph with a fixed node count.
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  NodeId num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }

  /// Queues a directed edge. Returns InvalidArgument on out-of-range
  /// endpoints, self-loops, or probability outside (0, 1].
  Status AddEdge(NodeId source, NodeId target, double probability);

  /// Queues both (u, v, p) and (v, u, p); used when ingesting undirected
  /// datasets, matching the paper's transformation.
  Status AddUndirectedEdge(NodeId u, NodeId v, double probability);

  /// Finalizes into CSR. The builder is left empty afterwards.
  StatusOr<DirectedGraph> Build(DuplicatePolicy policy = DuplicatePolicy::kReject);

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

/// Fills `csr`'s reverse arrays (in_offsets / in_sources / in_probs /
/// in_edge_ids) from its forward arrays by counting sort — O(n + m), no
/// comparison sort. Shared by GraphBuilder, ApplyDelta, and the snapshot
/// store's omit-reverse rebuild path, so every rebuild produces the
/// identical reverse CSR a persisted one would contain.
void BuildReverseCsr(GraphStorage& csr);

/// Same counting sort, reading the forward CSR from caller-owned spans and
/// filling only `into`'s reverse arrays. The snapshot store uses this when
/// a compact file omits the reverse sections: the forward arrays stay on
/// the mapping (zero-copy) and only the reverse CSR is materialized.
void BuildReverseCsr(std::span<const EdgeId> out_offsets, std::span<const NodeId> out_targets,
                     std::span<const double> out_probs, GraphStorage& into);

}  // namespace asti
