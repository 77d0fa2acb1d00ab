// Tests for graph/graph.h and graph/graph_builder.h: CSR construction,
// adjacency consistency, duplicate/self-loop policies, the derived
// per-node uniform in-probability, out-mass order and no-live table, and
// the pinned ForwardCsrDigest value.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "delta/apply.h"
#include "delta/churn.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "store/snapshot_store.h"
#include "store/snapshot_writer.h"
#include "util/rng.h"

namespace asti {
namespace {

DirectedGraph SmallDiamond() {
  // 0 -> 1 (.5), 0 -> 2 (.25), 1 -> 3 (1), 2 -> 3 (.75)
  GraphBuilder builder(4);
  EXPECT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2, 0.25).ok());
  EXPECT_TRUE(builder.AddEdge(1, 3, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, 0.75).ok());
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(GraphBuilderTest, BuildsCounts) {
  const DirectedGraph graph = SmallDiamond();
  EXPECT_EQ(graph.NumNodes(), 4u);
  EXPECT_EQ(graph.NumEdges(), 4u);
}

TEST(GraphBuilderTest, OutAdjacency) {
  const DirectedGraph graph = SmallDiamond();
  EXPECT_EQ(graph.OutDegree(0), 2u);
  EXPECT_EQ(graph.OutDegree(3), 0u);
  auto neighbors = graph.OutNeighbors(0);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0], 1u);
  EXPECT_EQ(neighbors[1], 2u);
  auto probs = graph.OutProbabilities(0);
  EXPECT_DOUBLE_EQ(probs[0], 0.5);
  EXPECT_DOUBLE_EQ(probs[1], 0.25);
}

TEST(GraphBuilderTest, InAdjacency) {
  const DirectedGraph graph = SmallDiamond();
  EXPECT_EQ(graph.InDegree(3), 2u);
  EXPECT_EQ(graph.InDegree(0), 0u);
  auto sources = graph.InNeighbors(3);
  ASSERT_EQ(sources.size(), 2u);
  // Sorted by source (CSR fill order).
  EXPECT_EQ(sources[0], 1u);
  EXPECT_EQ(sources[1], 2u);
  auto probs = graph.InProbabilities(3);
  EXPECT_DOUBLE_EQ(probs[0], 1.0);
  EXPECT_DOUBLE_EQ(probs[1], 0.75);
}

TEST(GraphBuilderTest, InEdgeIdsPointBackToForwardEdges) {
  const DirectedGraph graph = SmallDiamond();
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    auto sources = graph.InNeighbors(v);
    auto edge_ids = graph.InEdgeIds(v);
    auto probs = graph.InProbabilities(v);
    for (size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(graph.EdgeTarget(edge_ids[i]), v);
      EXPECT_DOUBLE_EQ(graph.EdgeProbability(edge_ids[i]), probs[i]);
    }
  }
}

TEST(GraphBuilderTest, EdgeIdsAreContiguousPerSource) {
  const DirectedGraph graph = SmallDiamond();
  const EdgeId first = graph.FirstOutEdge(0);
  EXPECT_EQ(graph.EdgeTarget(first), 1u);
  EXPECT_EQ(graph.EdgeTarget(first + 1), 2u);
}

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder builder(3);
  const Status status = builder.AddEdge(1, 1, 0.5);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.AddEdge(0, 3, 0.5).ok());
  EXPECT_FALSE(builder.AddEdge(3, 0, 0.5).ok());
}

TEST(GraphBuilderTest, RejectsBadProbability) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.AddEdge(0, 1, 0.0).ok());
  EXPECT_FALSE(builder.AddEdge(0, 1, -0.1).ok());
  EXPECT_FALSE(builder.AddEdge(0, 1, 1.5).ok());
  EXPECT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
}

TEST(GraphBuilderTest, DuplicateRejectPolicy) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.7).ok());
  auto graph = builder.Build(GraphBuilder::DuplicatePolicy::kReject);
  EXPECT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, DuplicateKeepMaxPolicy) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.7).ok());
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.6).ok());
  auto graph = builder.Build(GraphBuilder::DuplicatePolicy::kKeepMaxProbability);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(graph->OutProbabilities(0)[0], 0.7);
}

TEST(GraphBuilderTest, UndirectedAddsBothDirections) {
  GraphBuilder builder(2);
  ASSERT_TRUE(builder.AddUndirectedEdge(0, 1, 0.4).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumEdges(), 2u);
  EXPECT_EQ(graph->OutDegree(0), 1u);
  EXPECT_EQ(graph->OutDegree(1), 1u);
}

TEST(GraphTest, EmptyGraph) {
  GraphBuilder builder(5);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumNodes(), 5u);
  EXPECT_EQ(graph->NumEdges(), 0u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(graph->OutDegree(v), 0u);
    EXPECT_EQ(graph->InDegree(v), 0u);
  }
}

// Nodes by descending out-probability mass, ties by id; an edgeless node
// has mass 0, and so does an edgeless graph's largest. The order is sorted
// once and shared by copies, including copies made before its first read.
TEST(GraphTest, NodesByOutMassIsSortedOnceAndShared) {
  GraphBuilder builder(5);
  ASSERT_TRUE(builder.AddEdge(3, 0, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(3, 1, 0.25).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.75).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, 0.75).ok());
  const DirectedGraph graph = std::move(builder.Build()).value();
  EXPECT_DOUBLE_EQ(graph.MaxOutMass(), 0.75);
  const DirectedGraph early_copy = graph;
  const std::vector<NodeId> order(graph.NodesByOutMass().begin(),
                                  graph.NodesByOutMass().end());
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 3, 2, 4}));
  const DirectedGraph late_copy = graph;
  EXPECT_EQ(early_copy.NodesByOutMass().data(), graph.NodesByOutMass().data());
  EXPECT_EQ(late_copy.NodesByOutMass().data(), graph.NodesByOutMass().data());

  const DirectedGraph edgeless = std::move(GraphBuilder(3).Build()).value();
  EXPECT_EQ(edgeless.NodesByOutMass().size(), 3u);
  EXPECT_EQ(edgeless.MaxOutMass(), 0.0);
}

// Copies first read the order on several threads at once: one sort serves
// them all (the TSan job runs this).
TEST(GraphTest, NodesByOutMassIsSortedOnceAcrossThreads) {
  const DirectedGraph graph = SmallDiamond();
  std::vector<const NodeId*> seen(4, nullptr);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < seen.size(); ++t) {
    readers.emplace_back([&graph, &seen, t] {
      const DirectedGraph copy = graph;
      seen[t] = copy.NodesByOutMass().data();
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (const NodeId* data : seen) EXPECT_EQ(data, graph.NodesByOutMass().data());
  EXPECT_EQ(graph.NodesByOutMass().size(), graph.NumNodes());
}

// The no-live table: (1 − p)^d = exp(d·log1p(−p)) at uniform nodes under
// the count cap, 0 at mixed, p = 1, capped and source-free nodes. A uniform
// p = 0.5 graph puts its in-hubs above the cap; a reweight delta makes
// mixed nodes. The delta mint, the same graph rebuilt on the heap and that
// graph's mmap snapshot derive bit-identical tables.
TEST(GraphTest, NoLiveInProbabilitiesFollowTheCountCap) {
  Rng rng(151);
  auto base = BuildWeightedGraph(MakeChungLu(300, 2400, 2.2, rng), WeightScheme::kUniform, 0.5);
  ASSERT_TRUE(base.ok());
  ChurnSpec spec;
  spec.inserts = 20;
  spec.deletes = 20;
  spec.reweights = 40;
  auto delta = MakeRandomDelta(*base, spec, rng);
  ASSERT_TRUE(delta.ok());
  auto minted = ApplyDelta(*base, *delta);
  auto rebuilt = ApplyDeltaByRebuild(*base, *delta);
  ASSERT_TRUE(minted.ok() && rebuilt.ok());
  const std::string path = testing::TempDir() + "/no_live.asms";
  ASSERT_TRUE(
      store::WriteSnapshot(*rebuilt, "no_live", WeightScheme::kUniform, {}, path).ok());
  auto mapped = store::OpenSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const DirectedGraph& graph = *rebuilt;
  const std::span<const double> no_live = graph.NoLiveInProbabilities();
  ASSERT_EQ(no_live.size(), graph.NumNodes());
  size_t drawn = 0;
  size_t capped = 0;
  size_t mixed = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    const std::optional<double> p = graph.UniformInProbability(v);
    const double q0 = p && *p < 1.0 ? std::exp(graph.InDegree(v) * std::log1p(-*p)) : 0.0;
    if (q0 >= kMinNoLiveInProbability) {
      EXPECT_EQ(no_live[v], q0) << "node " << v;
      ++drawn;
    } else {
      EXPECT_EQ(no_live[v], 0.0) << "node " << v;
      capped += q0 > 0.0;
      mixed += !p && graph.InDegree(v) > 0;
    }
  }
  EXPECT_GT(drawn, 100u);
  EXPECT_GT(capped, 0u);
  EXPECT_GT(mixed, 0u);
  const auto same = [&](const DirectedGraph& other) {
    const std::span<const double> theirs = other.NoLiveInProbabilities();
    return std::equal(no_live.begin(), no_live.end(), theirs.begin(), theirs.end());
  };
  EXPECT_TRUE(same(*minted));
  EXPECT_TRUE(same(mapped->graph));
  std::filesystem::remove(path);
}

// Copies first read the table on several threads at once: one derivation
// serves them all (the TSan job runs this).
TEST(GraphTest, NoLiveInProbabilitiesAreDerivedOnceAcrossThreads) {
  const DirectedGraph graph = SmallDiamond();
  std::vector<const double*> seen(4, nullptr);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < seen.size(); ++t) {
    readers.emplace_back([&graph, &seen, t] {
      const DirectedGraph copy = graph;
      seen[t] = copy.NoLiveInProbabilities().data();
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (const double* data : seen) EXPECT_EQ(data, graph.NoLiveInProbabilities().data());
  // Diamond: node 1 has one in-edge of 0.5, node 2 one of 0.25; 0 has none
  // and 3 is mixed.
  const std::span<const double> no_live = graph.NoLiveInProbabilities();
  ASSERT_EQ(no_live.size(), 4u);
  EXPECT_EQ(no_live[0], 0.0);
  EXPECT_DOUBLE_EQ(no_live[1], 0.5);
  EXPECT_DOUBLE_EQ(no_live[2], 0.75);
  EXPECT_EQ(no_live[3], 0.0);
}

TEST(GraphTest, InProbabilitySum) {
  const DirectedGraph graph = SmallDiamond();
  EXPECT_DOUBLE_EQ(graph.InProbabilitySum(3), 1.75);
  EXPECT_DOUBLE_EQ(graph.InProbabilitySum(0), 0.0);
}

TEST(GraphTest, ToEdgeListRoundTrip) {
  const DirectedGraph graph = SmallDiamond();
  const std::vector<Edge> edges = graph.ToEdgeList();
  ASSERT_EQ(edges.size(), 4u);
  std::map<std::pair<NodeId, NodeId>, double> expected = {
      {{0, 1}, 0.5}, {{0, 2}, 0.25}, {{1, 3}, 1.0}, {{2, 3}, 0.75}};
  for (const Edge& e : edges) {
    auto it = expected.find({e.source, e.target});
    ASSERT_NE(it, expected.end());
    EXPECT_DOUBLE_EQ(e.probability, it->second);
    expected.erase(it);
  }
  EXPECT_TRUE(expected.empty());
}

TEST(GraphTest, DegreeSumsMatchEdgeCount) {
  const DirectedGraph graph = SmallDiamond();
  size_t out_total = 0;
  size_t in_total = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    out_total += graph.OutDegree(v);
    in_total += graph.InDegree(v);
  }
  EXPECT_EQ(out_total, graph.NumEdges());
  EXPECT_EQ(in_total, graph.NumEdges());
}

TEST(GraphTest, UniformInProbabilityIsDerivedPerNode) {
  // Diamond: 1 and 2 have one in-edge each; 3's two disagree; 0 has none.
  const DirectedGraph diamond = SmallDiamond();
  EXPECT_EQ(diamond.UniformInProbability(0), std::nullopt);
  EXPECT_EQ(diamond.UniformInProbability(1), 0.5);
  EXPECT_EQ(diamond.UniformInProbability(2), 0.25);
  EXPECT_EQ(diamond.UniformInProbability(3), std::nullopt);

  // Weighted cascade: every node with in-edges reports 1/indeg (p = 1 at
  // indeg 1); indeg-0 nodes report none. Copies agree.
  Rng rng(17);
  const EdgeSkeleton skeleton = MakeChungLu(300, 1500, 2.2, rng);
  auto cascade = BuildWeightedGraph(skeleton, WeightScheme::kWeightedCascade);
  ASSERT_TRUE(cascade.ok());
  const DirectedGraph copy = *cascade;
  size_t sources = 0;
  size_t certain = 0;
  for (NodeId v = 0; v < cascade->NumNodes(); ++v) {
    const uint32_t indeg = cascade->InDegree(v);
    if (indeg == 0) {
      EXPECT_EQ(cascade->UniformInProbability(v), std::nullopt) << "node " << v;
      ++sources;
      continue;
    }
    EXPECT_EQ(cascade->UniformInProbability(v), 1.0 / indeg) << "node " << v;
    EXPECT_EQ(copy.UniformInProbability(v), cascade->UniformInProbability(v));
    certain += indeg == 1 ? 1 : 0;
  }
  EXPECT_GT(sources, 0u);
  EXPECT_GT(certain, 0u);

  // Trivalency: a node whose in-probabilities differ reports none; one
  // whose in-probabilities happen to agree reports their value.
  auto trivalency = BuildWeightedGraph(skeleton, WeightScheme::kTrivalency, 0.1, &rng);
  ASSERT_TRUE(trivalency.ok());
  size_t mixed = 0;
  for (NodeId v = 0; v < trivalency->NumNodes(); ++v) {
    const auto probs = trivalency->InProbabilities(v);
    const bool agree =
        !probs.empty() && std::all_of(probs.begin(), probs.end(),
                                      [&](double p) { return p == probs[0]; });
    if (agree) {
      EXPECT_EQ(trivalency->UniformInProbability(v), probs[0]) << "node " << v;
    } else {
      EXPECT_EQ(trivalency->UniformInProbability(v), std::nullopt) << "node " << v;
      mixed += probs.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(mixed, 0u);
}

// Delta files persist this digest and ApplyDelta refuses a batch whose
// base_digest differs, so its value is a persisted format: these literals
// must never change.
TEST(GraphTest, ForwardCsrDigestIsPinned) {
  EXPECT_EQ(ForwardCsrDigest(SmallDiamond()), 0xf292a05114022d50ULL);
  GraphBuilder empty(3);
  auto graph = empty.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(ForwardCsrDigest(*graph), 0x08869886ec5c2369ULL);
}

}  // namespace
}  // namespace asti
