#include "delta/churn.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "delta/apply.h"

namespace asti {

namespace {

/// Probability in (0, 1] with a 20-bit lattice — exact in double, so text
/// round-trips and digest comparisons never hinge on decimal printing.
double RandomProbability(Rng& rng) {
  return static_cast<double>(rng.NextBounded(1u << 20) + 1) / (1u << 20);
}

/// Source node of forward edge `e`: the row whose offset range covers it.
NodeId EdgeSource(const DirectedGraph& graph, EdgeId e) {
  const std::span<const EdgeId> offsets = graph.OutOffsets();
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), e);
  return static_cast<NodeId>(it - offsets.begin() - 1);
}

bool HasEdge(const DirectedGraph& graph, NodeId u, NodeId v) {
  const std::span<const NodeId> row = graph.OutNeighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

}  // namespace

StatusOr<EdgeDelta> MakeRandomDelta(const DirectedGraph& graph, const ChurnSpec& spec,
                                    Rng& rng) {
  const NodeId n = graph.NumNodes();
  const EdgeId m = graph.NumEdges();
  if (n < 2) {
    return Status::InvalidArgument("churn needs at least 2 nodes, graph has " +
                                   std::to_string(n));
  }

  EdgeDelta delta;
  std::set<std::pair<NodeId, NodeId>> used;

  // Deletes and reweights: distinct existing edges (an EdgeId names a
  // unique (source, target) pair in a canonical CSR).
  const size_t structural = std::min<size_t>(spec.deletes + spec.reweights, m);
  const size_t deletes =
      std::min(spec.deletes, structural);  // deletes first, reweights get the rest
  std::set<EdgeId> picked_edges;
  while (picked_edges.size() < structural) {
    picked_edges.insert(static_cast<EdgeId>(rng.NextBounded(m)));
  }
  size_t index = 0;
  for (const EdgeId e : picked_edges) {
    DeltaOp op;
    op.source = EdgeSource(graph, e);
    op.target = graph.EdgeTarget(e);
    if (index < deletes) {
      op.kind = DeltaOpKind::kDelete;
    } else {
      op.kind = DeltaOpKind::kReweight;
      op.probability = RandomProbability(rng);
    }
    used.insert({op.source, op.target});
    delta.ops.push_back(op);
    ++index;
  }

  // Inserts: rejection-sample absent pairs; a dense graph may yield fewer
  // than asked once the attempt budget runs out.
  size_t attempts = 0;
  const size_t max_attempts = 64 * (spec.inserts + 1);
  size_t inserted = 0;
  while (inserted < spec.inserts && attempts < max_attempts) {
    ++attempts;
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v || used.count({u, v}) != 0 || HasEdge(graph, u, v)) continue;
    DeltaOp op;
    op.kind = DeltaOpKind::kInsert;
    op.source = u;
    op.target = v;
    op.probability = RandomProbability(rng);
    used.insert({u, v});
    delta.ops.push_back(op);
    ++inserted;
  }

  ASM_RETURN_NOT_OK(StampDigests(graph, delta));
  return delta;
}

}  // namespace asti
