#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/graph_builder.h"
#include "graph/weight_models.h"

namespace asti {

namespace {

// Packs a directed edge into one key for dedup sets.
uint64_t EdgeKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
}

}  // namespace

EdgeSkeleton MakePath(NodeId n) {
  EdgeSkeleton skeleton{n, {}};
  skeleton.edges.reserve(n > 0 ? n - 1 : 0);
  for (NodeId u = 0; u + 1 < n; ++u) skeleton.edges.push_back(Edge{u, u + 1, 1.0});
  return skeleton;
}

EdgeSkeleton MakeCycle(NodeId n) {
  EdgeSkeleton skeleton = MakePath(n);
  if (n >= 2) skeleton.edges.push_back(Edge{n - 1, 0, 1.0});
  return skeleton;
}

EdgeSkeleton MakeStar(NodeId n) {
  EdgeSkeleton skeleton{n, {}};
  for (NodeId v = 1; v < n; ++v) skeleton.edges.push_back(Edge{0, v, 1.0});
  return skeleton;
}

EdgeSkeleton MakeComplete(NodeId n) {
  EdgeSkeleton skeleton{n, {}};
  skeleton.edges.reserve(static_cast<size_t>(n) * (n - 1));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) skeleton.edges.push_back(Edge{u, v, 1.0});
    }
  }
  return skeleton;
}

StatusOr<DirectedGraph> MakePaperFigure1Graph() {
  GraphBuilder builder(6);
  // v1..v6 are 0..5.
  ASM_RETURN_NOT_OK(builder.AddEdge(0, 3, 0.9));  // v1 -> v4
  ASM_RETURN_NOT_OK(builder.AddEdge(0, 5, 0.3));  // v1 -> v6
  ASM_RETURN_NOT_OK(builder.AddEdge(3, 2, 0.1));  // v4 -> v3
  ASM_RETURN_NOT_OK(builder.AddEdge(5, 4, 0.5));  // v6 -> v5
  ASM_RETURN_NOT_OK(builder.AddEdge(2, 4, 0.4));  // v3 -> v5
  ASM_RETURN_NOT_OK(builder.AddEdge(4, 1, 0.6));  // v5 -> v2
  ASM_RETURN_NOT_OK(builder.AddEdge(1, 0, 0.7));  // v2 -> v1
  return builder.Build();
}

StatusOr<DirectedGraph> MakePaperFigure2Graph() {
  GraphBuilder builder(4);
  ASM_RETURN_NOT_OK(builder.AddEdge(0, 1, 0.5));  // v1 -> v2
  ASM_RETURN_NOT_OK(builder.AddEdge(0, 2, 0.5));  // v1 -> v3
  ASM_RETURN_NOT_OK(builder.AddEdge(1, 3, 1.0));  // v2 -> v4
  ASM_RETURN_NOT_OK(builder.AddEdge(2, 3, 1.0));  // v3 -> v4
  return builder.Build();
}

EdgeSkeleton MakeErdosRenyi(NodeId n, size_t num_edges, Rng& rng) {
  ASM_CHECK(n >= 2);
  const size_t max_edges = static_cast<size_t>(n) * (n - 1);
  ASM_CHECK(num_edges <= max_edges) << "requested more edges than ordered pairs";
  EdgeSkeleton skeleton{n, {}};
  std::unordered_set<uint64_t> seen;
  seen.reserve(num_edges * 2);
  while (skeleton.edges.size() < num_edges) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    if (!seen.insert(EdgeKey(u, v)).second) continue;
    skeleton.edges.push_back(Edge{u, v, 1.0});
  }
  return skeleton;
}

EdgeSkeleton MakeBarabasiAlbert(NodeId n, uint32_t attach, Rng& rng) {
  ASM_CHECK(attach >= 1);
  ASM_CHECK(n > attach);
  EdgeSkeleton skeleton{n, {}};
  // repeated_nodes holds one entry per half-edge; sampling from it is
  // preferential attachment.
  std::vector<NodeId> repeated_nodes;
  repeated_nodes.reserve(2 * static_cast<size_t>(n) * attach);
  // Seed clique over the first attach+1 nodes keeps early sampling nontrivial.
  for (NodeId u = 0; u <= attach; ++u) {
    for (NodeId v = u + 1; v <= attach; ++v) {
      skeleton.edges.push_back(Edge{u, v, 1.0});
      skeleton.edges.push_back(Edge{v, u, 1.0});
      repeated_nodes.push_back(u);
      repeated_nodes.push_back(v);
    }
  }
  std::unordered_set<uint64_t> seen;
  for (const Edge& e : skeleton.edges) seen.insert(EdgeKey(e.source, e.target));
  for (NodeId u = attach + 1; u < n; ++u) {
    std::unordered_set<NodeId> targets;
    while (targets.size() < attach) {
      const NodeId v = repeated_nodes[rng.NextBounded(repeated_nodes.size())];
      if (v != u) targets.insert(v);
    }
    for (NodeId v : targets) {
      if (seen.insert(EdgeKey(u, v)).second) skeleton.edges.push_back(Edge{u, v, 1.0});
      if (seen.insert(EdgeKey(v, u)).second) skeleton.edges.push_back(Edge{v, u, 1.0});
      repeated_nodes.push_back(u);
      repeated_nodes.push_back(v);
    }
  }
  return skeleton;
}

namespace {

// Cumulative power-law sampling weights; exponent <= 0 yields uniform.
// Weight w_i = (i + i0)^(-1/(exponent-1)); i0 offsets away from the
// singularity so the maximum expected degree stays sub-linear.
std::vector<double> CumulativeWeights(NodeId n, double exponent) {
  std::vector<double> cumulative(n);
  double total = 0.0;
  if (exponent <= 0.0) {
    for (NodeId i = 0; i < n; ++i) cumulative[i] = total += 1.0;
    return cumulative;
  }
  ASM_CHECK(exponent > 2.0) << "power-law exponent must exceed 2 for finite mean";
  const double alpha = 1.0 / (exponent - 1.0);
  const double i0 = std::pow(static_cast<double>(n), 0.25);
  for (NodeId i = 0; i < n; ++i) {
    cumulative[i] = total += std::pow(static_cast<double>(i) + i0, -alpha);
  }
  return cumulative;
}

NodeId SampleFromCumulative(const std::vector<double>& cumulative, Rng& rng) {
  const double x = rng.NextDouble() * cumulative.back();
  const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), x);
  return static_cast<NodeId>(it - cumulative.begin());
}

}  // namespace

EdgeSkeleton MakeChungLu(NodeId n, size_t target_edges, double exponent, Rng& rng) {
  return MakeTwoSidedChungLu(n, target_edges, exponent, exponent, rng);
}

EdgeSkeleton MakeTwoSidedChungLu(NodeId n, size_t target_edges, double out_exponent,
                                 double in_exponent, Rng& rng) {
  ASM_CHECK(n >= 2);
  const std::vector<double> out_cumulative = CumulativeWeights(n, out_exponent);
  const std::vector<double> in_cumulative = CumulativeWeights(n, in_exponent);
  EdgeSkeleton skeleton{n, {}};
  std::unordered_set<uint64_t> seen;
  seen.reserve(target_edges * 2);
  size_t attempts = 0;
  const size_t max_attempts = target_edges * 20 + 1000;
  while (skeleton.edges.size() < target_edges && attempts < max_attempts) {
    ++attempts;
    const NodeId u = SampleFromCumulative(out_cumulative, rng);
    const NodeId v = SampleFromCumulative(in_cumulative, rng);
    if (u == v) continue;
    if (!seen.insert(EdgeKey(u, v)).second) continue;
    skeleton.edges.push_back(Edge{u, v, 1.0});
  }
  return skeleton;
}

StatusOr<DirectedGraph> BuildWeightedGraph(EdgeSkeleton skeleton, WeightScheme scheme,
                                           double uniform_p, Rng* rng) {
  // Deduplicate *before* weight assignment: weighted-cascade in-degrees
  // must be computed on the final edge set or in-probabilities no longer
  // sum to 1 (e.g. mirrored skeletons that already contained both
  // directions of an edge).
  std::sort(skeleton.edges.begin(), skeleton.edges.end(),
            [](const Edge& a, const Edge& b) {
              if (a.source != b.source) return a.source < b.source;
              return a.target < b.target;
            });
  skeleton.edges.erase(
      std::unique(skeleton.edges.begin(), skeleton.edges.end(),
                  [](const Edge& a, const Edge& b) {
                    return a.source == b.source && a.target == b.target;
                  }),
      skeleton.edges.end());
  switch (scheme) {
    case WeightScheme::kWeightedCascade:
      AssignWeightedCascade(skeleton.num_nodes, skeleton.edges);
      break;
    case WeightScheme::kUniform:
      AssignUniform(skeleton.edges, uniform_p);
      break;
    case WeightScheme::kTrivalency: {
      if (rng == nullptr) {
        return Status::InvalidArgument("trivalency weighting needs an Rng");
      }
      AssignTrivalency(skeleton.edges, *rng);
      break;
    }
  }
  GraphBuilder builder(skeleton.num_nodes);
  for (const Edge& e : skeleton.edges) {
    ASM_RETURN_NOT_OK(builder.AddEdge(e.source, e.target, e.probability));
  }
  return builder.Build(GraphBuilder::DuplicatePolicy::kKeepMaxProbability);
}

}  // namespace asti
