#include "delta/apply.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"

namespace asti {

namespace {

std::string EdgeLabel(NodeId source, NodeId target) {
  return std::to_string(source) + " -> " + std::to_string(target);
}

Status CheckBaseBinding(const DirectedGraph& base, const EdgeDelta& delta) {
  if (delta.base_digest == 0) return Status::OK();
  const uint64_t actual = ForwardCsrDigest(base);
  if (actual != delta.base_digest) {
    return Status::InvalidArgument(
        "delta is bound to a different base graph (delta base_digest " +
        std::to_string(delta.base_digest) + ", graph digest " +
        std::to_string(actual) + ")");
  }
  return Status::OK();
}

Status CheckResultBinding(const DirectedGraph& minted, const EdgeDelta& delta) {
  if (delta.result_digest == 0) return Status::OK();
  const uint64_t actual = ForwardCsrDigest(minted);
  if (actual != delta.result_digest) {
    return Status::InvalidArgument(
        "delta apply produced digest " + std::to_string(actual) +
        " but the batch expects result_digest " + std::to_string(delta.result_digest) +
        " (was it staged against a different base?)");
  }
  return Status::OK();
}

Status CheckEndpoints(const DirectedGraph& base, const EdgeDelta& delta) {
  const NodeId n = base.NumNodes();
  for (const DeltaOp& op : delta.ops) {
    if (op.source >= n || op.target >= n) {
      return Status::InvalidArgument(
          std::string(DeltaOpKindName(op.kind)) + " endpoint out of range for a " +
          std::to_string(n) + "-node graph: " + EdgeLabel(op.source, op.target));
    }
  }
  return Status::OK();
}

/// Keepalive for the reweight-only fast path: pins the base graph (and
/// through it an mmap'd snapshot, if that is where the base lives) while
/// owning the only two arrays that changed.
struct SharedProbsStorage {
  DirectedGraph base;
  std::vector<double> out_probs;
  std::vector<double> in_probs;
};

/// Reweight-only batches keep the CSR shape: share every structure array
/// with the base by span, rewrite the two probability arrays.
StatusOr<DirectedGraph> ApplyReweightOnly(const DirectedGraph& base,
                                          std::span<const DeltaOp> ops,
                                          DeltaApplyStats* stats) {
  auto keep = std::make_shared<SharedProbsStorage>();
  keep->base = base;
  keep->out_probs.assign(base.OutProbs().begin(), base.OutProbs().end());
  for (const DeltaOp& op : ops) {
    const std::span<const NodeId> row = base.OutNeighbors(op.source);
    const auto it = std::lower_bound(row.begin(), row.end(), op.target);
    if (it == row.end() || *it != op.target) {
      return Status::InvalidArgument("reweight of absent edge " +
                                     EdgeLabel(op.source, op.target));
    }
    const size_t slot = base.FirstOutEdge(op.source) + (it - row.begin());
    keep->out_probs[slot] = op.probability;
    if (stats != nullptr) ++stats->reweighted;
  }
  // The reverse probabilities mirror the forward ones through in_edge_ids —
  // exactly how the counting sort fills them, so unchanged slots keep their
  // base bit patterns and a rebuild would produce these same bytes.
  const std::span<const EdgeId> edge_ids = base.InEdgeIdsFlat();
  keep->in_probs.resize(edge_ids.size());
  for (size_t i = 0; i < edge_ids.size(); ++i) {
    keep->in_probs[i] = keep->out_probs[edge_ids[i]];
  }
  if (stats != nullptr) stats->shared_structure = true;
  const std::span<const double> out_probs(keep->out_probs);
  const std::span<const double> in_probs(keep->in_probs);
  return DirectedGraph(base.NumNodes(), base.OutOffsets(), base.OutTargets(), out_probs,
                       base.InOffsets(), base.InSources(), in_probs,
                       base.InEdgeIdsFlat(), std::move(keep));
}

/// Shape-changing batches: merge touched rows in target order, block-copy
/// untouched row runs, rebuild the reverse CSR with the shared counting
/// sort. `ops` is sorted by (source, target).
StatusOr<DirectedGraph> ApplyRebuildRows(const DirectedGraph& base,
                                         std::span<const DeltaOp> ops,
                                         DeltaApplyStats* stats) {
  const NodeId n = base.NumNodes();
  const std::span<const EdgeId> off = base.OutOffsets();
  const std::span<const NodeId> targets = base.OutTargets();
  const std::span<const double> probs = base.OutProbs();

  GraphStorage csr;
  csr.out_offsets.assign(size_t{n} + 1, 0);
  csr.out_targets.reserve(targets.size() + ops.size());
  csr.out_probs.reserve(targets.size() + ops.size());

  size_t op_i = 0;
  NodeId u = 0;
  while (u < n) {
    if (op_i == ops.size() || ops[op_i].source > u) {
      // Untouched run [u, run_end): one block copy per array.
      const NodeId run_end = op_i == ops.size() ? n : ops[op_i].source;
      csr.out_targets.insert(csr.out_targets.end(), targets.begin() + off[u],
                             targets.begin() + off[run_end]);
      csr.out_probs.insert(csr.out_probs.end(), probs.begin() + off[u],
                           probs.begin() + off[run_end]);
      const EdgeId shift = csr.out_offsets[u] - off[u];
      for (NodeId v = u; v < run_end; ++v) {
        csr.out_offsets[v + 1] = off[v + 1] + shift;
      }
      u = run_end;
      continue;
    }
    // Merge row u's edges (sorted by target) with its ops (same order).
    size_t op_end = op_i;
    while (op_end < ops.size() && ops[op_end].source == u) ++op_end;
    const std::span<const NodeId> row_t = base.OutNeighbors(u);
    const std::span<const double> row_p = base.OutProbabilities(u);
    size_t bi = 0;
    size_t oi = op_i;
    while (bi < row_t.size() || oi < op_end) {
      if (oi == op_end || (bi < row_t.size() && row_t[bi] < ops[oi].target)) {
        csr.out_targets.push_back(row_t[bi]);
        csr.out_probs.push_back(row_p[bi]);
        ++bi;
      } else if (bi == row_t.size() || ops[oi].target < row_t[bi]) {
        // Op against an edge the base does not have.
        if (ops[oi].kind != DeltaOpKind::kInsert) {
          return Status::InvalidArgument(
              std::string(DeltaOpKindName(ops[oi].kind)) + " of absent edge " +
              EdgeLabel(u, ops[oi].target));
        }
        csr.out_targets.push_back(ops[oi].target);
        csr.out_probs.push_back(ops[oi].probability);
        if (stats != nullptr) ++stats->inserted;
        ++oi;
      } else {
        // Op against an existing edge.
        switch (ops[oi].kind) {
          case DeltaOpKind::kInsert:
            return Status::InvalidArgument("insert of existing edge " +
                                           EdgeLabel(u, ops[oi].target));
          case DeltaOpKind::kDelete:
            if (stats != nullptr) ++stats->deleted;
            break;
          case DeltaOpKind::kReweight:
            csr.out_targets.push_back(ops[oi].target);
            csr.out_probs.push_back(ops[oi].probability);
            if (stats != nullptr) ++stats->reweighted;
            break;
        }
        ++bi;
        ++oi;
      }
    }
    csr.out_offsets[u + 1] = static_cast<EdgeId>(csr.out_targets.size());
    op_i = op_end;
    ++u;
  }

  BuildReverseCsr(csr);
  return DirectedGraph(n, std::make_shared<const GraphStorage>(std::move(csr)));
}

}  // namespace

StatusOr<DirectedGraph> ApplyDelta(const DirectedGraph& base, const EdgeDelta& delta,
                                   DeltaApplyStats* stats) {
  ASM_RETURN_NOT_OK(ValidateDelta(delta));
  ASM_RETURN_NOT_OK(CheckBaseBinding(base, delta));
  ASM_RETURN_NOT_OK(CheckEndpoints(base, delta));

  std::vector<DeltaOp> ops(delta.ops.begin(), delta.ops.end());
  std::sort(ops.begin(), ops.end(), [](const DeltaOp& a, const DeltaOp& b) {
    if (a.source != b.source) return a.source < b.source;
    return a.target < b.target;
  });
  DeltaApplyStats local;
  DeltaApplyStats* out = stats != nullptr ? stats : &local;
  *out = DeltaApplyStats{};
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == 0 || ops[i].source != ops[i - 1].source) ++out->rows_touched;
  }

  const bool shape_preserving =
      std::all_of(ops.begin(), ops.end(), [](const DeltaOp& op) {
        return op.kind == DeltaOpKind::kReweight;
      });
  StatusOr<DirectedGraph> minted =
      shape_preserving ? ApplyReweightOnly(base, ops, out)
                       : ApplyRebuildRows(base, ops, out);
  if (!minted.ok()) return minted.status();
  ASM_RETURN_NOT_OK(CheckResultBinding(*minted, delta));
  return minted;
}

StatusOr<DirectedGraph> ApplyDeltaByRebuild(const DirectedGraph& base,
                                            const EdgeDelta& delta) {
  ASM_RETURN_NOT_OK(ValidateDelta(delta));
  ASM_RETURN_NOT_OK(CheckBaseBinding(base, delta));
  ASM_RETURN_NOT_OK(CheckEndpoints(base, delta));

  std::map<std::pair<NodeId, NodeId>, double> edges;
  for (const Edge& e : base.ToEdgeList()) {
    edges[{e.source, e.target}] = e.probability;
  }
  for (const DeltaOp& op : delta.ops) {
    const auto key = std::make_pair(op.source, op.target);
    const auto it = edges.find(key);
    switch (op.kind) {
      case DeltaOpKind::kInsert:
        if (it != edges.end()) {
          return Status::InvalidArgument("insert of existing edge " +
                                         EdgeLabel(op.source, op.target));
        }
        edges[key] = op.probability;
        break;
      case DeltaOpKind::kDelete:
        if (it == edges.end()) {
          return Status::InvalidArgument("delete of absent edge " +
                                         EdgeLabel(op.source, op.target));
        }
        edges.erase(it);
        break;
      case DeltaOpKind::kReweight:
        if (it == edges.end()) {
          return Status::InvalidArgument("reweight of absent edge " +
                                         EdgeLabel(op.source, op.target));
        }
        it->second = op.probability;
        break;
    }
  }
  GraphBuilder builder(base.NumNodes());
  for (const auto& [key, probability] : edges) {
    ASM_RETURN_NOT_OK(builder.AddEdge(key.first, key.second, probability));
  }
  ASM_ASSIGN_OR_RETURN(DirectedGraph rebuilt, builder.Build());
  ASM_RETURN_NOT_OK(CheckResultBinding(rebuilt, delta));
  return rebuilt;
}

Status StampDigests(const DirectedGraph& base, EdgeDelta& delta) {
  delta.base_digest = ForwardCsrDigest(base);
  delta.result_digest = 0;
  ASM_ASSIGN_OR_RETURN(const DirectedGraph minted, ApplyDelta(base, delta));
  delta.result_digest = ForwardCsrDigest(minted);
  return Status::OK();
}

}  // namespace asti
