// Tests for the two-sided Chung-Lu generator and the sampler cost
// instrumentation.

#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.h"
#include "sampling/mrr_set.h"
#include "sampling/root_size.h"
#include "sampling/rr_set.h"

namespace asti {
namespace {

TEST(TwoSidedChungLuTest, UniformOutTamesOutHubs) {
  Rng rng1(267);
  Rng rng2(267);
  const NodeId n = 2000;
  const EdgeSkeleton symmetric = MakeChungLu(n, 10000, 2.2, rng1);
  const EdgeSkeleton two_sided = MakeTwoSidedChungLu(n, 10000, 0.0, 2.2, rng2);
  auto max_out_degree = [n](const EdgeSkeleton& skeleton) {
    std::vector<uint32_t> degree(n, 0);
    for (const Edge& e : skeleton.edges) ++degree[e.source];
    return *std::max_element(degree.begin(), degree.end());
  };
  EXPECT_LT(max_out_degree(two_sided), max_out_degree(symmetric) / 2);
}

TEST(TwoSidedChungLuTest, InDegreesStayHeavyTailed) {
  Rng rng(268);
  const NodeId n = 2000;
  const EdgeSkeleton skeleton = MakeTwoSidedChungLu(n, 10000, 0.0, 2.2, rng);
  std::vector<uint32_t> indegree(n, 0);
  for (const Edge& e : skeleton.edges) ++indegree[e.target];
  const uint32_t max_in = *std::max_element(indegree.begin(), indegree.end());
  EXPECT_GT(max_in, 20 * 10000 / n);  // hub far above the mean in-degree
}

TEST(SamplerCostTest, CountersAccumulateAndReset) {
  Rng graph_rng(269);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(100, 600, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  RrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(100);
  std::vector<NodeId> all_nodes(100);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  Rng rng(270);
  EXPECT_EQ(sampler.cost().nodes_visited, 0u);
  for (int i = 0; i < 50; ++i) sampler.Generate(all_nodes, nullptr, collection, rng);
  EXPECT_GE(sampler.cost().nodes_visited, 50u);  // at least the roots
  EXPECT_GE(sampler.cost().edges_examined, sampler.cost().nodes_visited / 2);
  sampler.ResetCost();
  EXPECT_EQ(sampler.cost().nodes_visited, 0u);
  EXPECT_EQ(sampler.cost().edges_examined, 0u);
}

TEST(SamplerCostTest, MrrCostGrowsWithRootCount) {
  Rng graph_rng(271);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(200, 1200, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  std::vector<NodeId> all_nodes(200);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);

  MrrSampler few_roots(*graph, DiffusionModel::kIndependentCascade);
  MrrSampler many_roots(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(200);
  Rng rng1(272);
  Rng rng2(272);
  for (int i = 0; i < 100; ++i) {
    few_roots.Generate(all_nodes, nullptr, 2, collection, rng1);
    many_roots.Generate(all_nodes, nullptr, 50, collection, rng2);
  }
  EXPECT_GT(many_roots.cost().nodes_visited, few_roots.cost().nodes_visited);
}

}  // namespace
}  // namespace asti
