// Tests for graph/generators.h and graph/weight_models.h: structural
// invariants, determinism, degree shapes, and the paper's fixture graphs.

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"
#include "graph/weight_models.h"

namespace asti {
namespace {

TEST(FixturesTest, PathShape) {
  const EdgeSkeleton path = MakePath(5);
  EXPECT_EQ(path.num_nodes, 5u);
  ASSERT_EQ(path.edges.size(), 4u);
  for (size_t i = 0; i < path.edges.size(); ++i) {
    EXPECT_EQ(path.edges[i].source, i);
    EXPECT_EQ(path.edges[i].target, i + 1);
  }
}

TEST(FixturesTest, CycleClosesPath) {
  const EdgeSkeleton cycle = MakeCycle(4);
  ASSERT_EQ(cycle.edges.size(), 4u);
  EXPECT_EQ(cycle.edges.back().source, 3u);
  EXPECT_EQ(cycle.edges.back().target, 0u);
}

TEST(FixturesTest, StarFansOut) {
  const EdgeSkeleton star = MakeStar(6);
  ASSERT_EQ(star.edges.size(), 5u);
  for (const Edge& e : star.edges) EXPECT_EQ(e.source, 0u);
}

TEST(FixturesTest, CompleteHasAllPairs) {
  const EdgeSkeleton complete = MakeComplete(4);
  EXPECT_EQ(complete.edges.size(), 12u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : complete.edges) {
    EXPECT_NE(e.source, e.target);
    seen.insert({e.source, e.target});
  }
  EXPECT_EQ(seen.size(), 12u);
}

TEST(FixturesTest, PaperFigure1GraphMatchesPaper) {
  auto graph = MakePaperFigure1Graph();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumNodes(), 6u);
  EXPECT_EQ(graph->NumEdges(), 7u);
  // v1 -> v4 with probability 0.9 (0-indexed: 0 -> 3).
  auto neighbors = graph->OutNeighbors(0);
  auto probs = graph->OutProbabilities(0);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0], 3u);
  EXPECT_DOUBLE_EQ(probs[0], 0.9);
}

TEST(FixturesTest, PaperFigure2GraphMatchesPaper) {
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumNodes(), 4u);
  EXPECT_EQ(graph->NumEdges(), 4u);
  EXPECT_DOUBLE_EQ(graph->InProbabilitySum(3), 2.0);  // two prob-1 in-edges
}

TEST(ErdosRenyiTest, ExactEdgeCountNoDuplicates) {
  Rng rng(1);
  const EdgeSkeleton skeleton = MakeErdosRenyi(50, 300, rng);
  EXPECT_EQ(skeleton.edges.size(), 300u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : skeleton.edges) {
    EXPECT_NE(e.source, e.target);
    EXPECT_LT(e.source, 50u);
    EXPECT_LT(e.target, 50u);
    EXPECT_TRUE(seen.insert({e.source, e.target}).second);
  }
}

TEST(ErdosRenyiTest, DeterministicGivenSeed) {
  Rng rng1(42);
  Rng rng2(42);
  const EdgeSkeleton a = MakeErdosRenyi(30, 100, rng1);
  const EdgeSkeleton b = MakeErdosRenyi(30, 100, rng2);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].source, b.edges[i].source);
    EXPECT_EQ(a.edges[i].target, b.edges[i].target);
  }
}

TEST(BarabasiAlbertTest, SymmetricStructure) {
  Rng rng(2);
  const EdgeSkeleton skeleton = MakeBarabasiAlbert(200, 2, rng);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : skeleton.edges) seen.insert({e.source, e.target});
  for (const Edge& e : skeleton.edges) {
    EXPECT_TRUE(seen.count({e.target, e.source}))
        << "missing reverse of " << e.source << "->" << e.target;
  }
}

TEST(BarabasiAlbertTest, AverageDegreeNearTwiceAttach) {
  Rng rng(3);
  const NodeId n = 2000;
  const EdgeSkeleton skeleton = MakeBarabasiAlbert(n, 2, rng);
  // Each new node adds ~2 undirected edges -> ~4 directed per node.
  const double avg = static_cast<double>(skeleton.edges.size()) / n;
  EXPECT_GT(avg, 3.4);
  EXPECT_LT(avg, 4.6);
}

TEST(BarabasiAlbertTest, ProducesHeavyTail) {
  Rng rng(4);
  const NodeId n = 3000;
  const EdgeSkeleton skeleton = MakeBarabasiAlbert(n, 2, rng);
  std::vector<uint32_t> degree(n, 0);
  for (const Edge& e : skeleton.edges) ++degree[e.source];
  const uint32_t max_degree = *std::max_element(degree.begin(), degree.end());
  // Preferential attachment hubs should be far above the mean (~4).
  EXPECT_GT(max_degree, 40u);
}

TEST(ChungLuTest, RespectsTargetAndBounds) {
  Rng rng(5);
  const EdgeSkeleton skeleton = MakeChungLu(500, 3000, 2.1, rng);
  EXPECT_GT(skeleton.edges.size(), 2800u);  // allows rare rejection shortfall
  EXPECT_LE(skeleton.edges.size(), 3000u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : skeleton.edges) {
    EXPECT_NE(e.source, e.target);
    EXPECT_TRUE(seen.insert({e.source, e.target}).second);
  }
}

TEST(ChungLuTest, LowIdsAreHubs) {
  Rng rng(6);
  const NodeId n = 2000;
  const EdgeSkeleton skeleton = MakeChungLu(n, 12000, 2.1, rng);
  std::vector<uint32_t> degree(n, 0);
  for (const Edge& e : skeleton.edges) {
    ++degree[e.source];
    ++degree[e.target];
  }
  uint64_t first_decile = 0;
  uint64_t last_decile = 0;
  for (NodeId v = 0; v < n / 10; ++v) first_decile += degree[v];
  for (NodeId v = n - n / 10; v < n; ++v) last_decile += degree[v];
  EXPECT_GT(first_decile, 4 * last_decile);
}

TEST(WeightModelsTest, WeightedCascadeIsInverseIndegree) {
  EdgeSkeleton skeleton = MakeStar(4);  // 0 -> {1,2,3}, indeg 1 each
  skeleton.edges.push_back(Edge{1, 3, 1.0});  // node 3 gains indeg 2
  AssignWeightedCascade(skeleton.num_nodes, skeleton.edges);
  for (const Edge& e : skeleton.edges) {
    if (e.target == 3) {
      EXPECT_DOUBLE_EQ(e.probability, 0.5);
    } else {
      EXPECT_DOUBLE_EQ(e.probability, 1.0);
    }
  }
}

TEST(WeightModelsTest, WeightedCascadeSatisfiesLtConstraint) {
  Rng rng(8);
  EdgeSkeleton skeleton = MakeErdosRenyi(100, 500, rng);
  AssignWeightedCascade(skeleton.num_nodes, skeleton.edges);
  auto graph = BuildWeightedGraph(std::move(skeleton), WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  for (NodeId v = 0; v < graph->NumNodes(); ++v) {
    if (graph->InDegree(v) > 0) {
      EXPECT_NEAR(graph->InProbabilitySum(v), 1.0, 1e-9);
    }
  }
}

TEST(WeightModelsTest, UniformAssignsConstant) {
  EdgeSkeleton skeleton = MakePath(10);
  AssignUniform(skeleton.edges, 0.37);
  for (const Edge& e : skeleton.edges) EXPECT_DOUBLE_EQ(e.probability, 0.37);
}

TEST(WeightModelsTest, TrivalencyUsesThreeLevels) {
  Rng rng(9);
  EdgeSkeleton skeleton = MakeComplete(20);
  AssignTrivalency(skeleton.edges, rng);
  std::set<double> levels;
  for (const Edge& e : skeleton.edges) levels.insert(e.probability);
  EXPECT_EQ(levels.size(), 3u);
  for (double p : levels) {
    EXPECT_TRUE(p == 0.1 || p == 0.01 || p == 0.001);
  }
}

TEST(BuildWeightedGraphTest, TrivalencyRequiresRng) {
  auto graph = BuildWeightedGraph(MakePath(4), WeightScheme::kTrivalency);
  EXPECT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuildWeightedGraphTest, UniformBuilds) {
  auto graph = BuildWeightedGraph(MakePath(4), WeightScheme::kUniform, 0.2);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumEdges(), 3u);
  EXPECT_DOUBLE_EQ(graph->OutProbabilities(0)[0], 0.2);
}

}  // namespace
}  // namespace asti
