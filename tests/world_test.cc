// Tests for diffusion/world.h: residual bookkeeping across observations.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "diffusion/world.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace asti {
namespace {

DirectedGraph DeterministicChain(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    EXPECT_TRUE(builder.AddEdge(u, u + 1, 1.0).ok());
  }
  return std::move(builder.Build()).value();
}

TEST(WorldTest, InitialState) {
  const DirectedGraph graph = DeterministicChain(6);
  Rng rng(41);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 4, rng);
  EXPECT_EQ(world.eta(), 4u);
  EXPECT_EQ(world.NumActive(), 0u);
  EXPECT_EQ(world.NumInactive(), 6u);
  EXPECT_EQ(world.Shortfall(), 4u);
  EXPECT_FALSE(world.TargetReached());
  EXPECT_EQ(world.InactiveNodes().size(), 6u);
}

TEST(WorldTest, ObserveUpdatesEverything) {
  const DirectedGraph graph = DeterministicChain(6);
  Rng rng(42);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 4, rng);
  const auto activated = world.Observe(2u);  // activates 2,3,4,5
  EXPECT_EQ(activated.size(), 4u);
  EXPECT_EQ(world.NumActive(), 4u);
  EXPECT_EQ(world.Shortfall(), 0u);
  EXPECT_TRUE(world.TargetReached());
  for (NodeId v : activated) EXPECT_TRUE(world.IsActive(v));
  EXPECT_FALSE(world.IsActive(0));
  EXPECT_FALSE(world.IsActive(1));
}

TEST(WorldTest, InactiveListStaysConsistent) {
  const DirectedGraph graph = DeterministicChain(8);
  Rng rng(43);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 8, rng);
  world.Observe(5u);  // activates 5,6,7
  const auto& inactive = world.InactiveNodes();
  EXPECT_EQ(inactive.size(), 5u);
  const std::set<NodeId> expected = {0, 1, 2, 3, 4};
  const std::set<NodeId> got(inactive.begin(), inactive.end());
  EXPECT_EQ(got, expected);
}

TEST(WorldTest, RepeatSeedIsNoOp) {
  const DirectedGraph graph = DeterministicChain(6);
  Rng rng(44);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 6, rng);
  world.Observe(3u);
  const NodeId active_before = world.NumActive();
  const auto activated = world.Observe(3u);
  EXPECT_TRUE(activated.empty());
  EXPECT_EQ(world.NumActive(), active_before);
}

TEST(WorldTest, ShortfallArithmetic) {
  const DirectedGraph graph = DeterministicChain(10);
  Rng rng(45);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 7, rng);
  world.Observe(7u);  // activates 7,8,9 -> 3 active
  EXPECT_EQ(world.Shortfall(), 4u);  // η_i = 7 - 3
  world.Observe(4u);  // activates 4,5,6 -> 6 active
  EXPECT_EQ(world.Shortfall(), 1u);
  world.Observe(0u);  // activates 0..3 -> 10 active
  EXPECT_EQ(world.Shortfall(), 0u);
  EXPECT_TRUE(world.TargetReached());
}

TEST(WorldTest, BatchObservation) {
  const DirectedGraph graph = DeterministicChain(9);
  Rng rng(46);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 9, rng);
  const auto activated = world.Observe(std::vector<NodeId>{6, 3});
  EXPECT_EQ(activated.size(), 6u);  // 6,7,8 and 3,4,5
  EXPECT_EQ(world.NumActive(), 6u);
}

TEST(WorldTest, SuppliedRealizationIsHonored) {
  // Probabilistic graph but explicit realization => deterministic world.
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.5).ok());
  const DirectedGraph graph = std::move(builder.Build()).value();
  // Find a realization where 0->1 is live and 1->2 blocked.
  Rng rng(47);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Realization candidate = Realization::SampleIc(graph, rng);
    if (candidate.LiveOutNeighbors(0).size() == 1 && candidate.LiveOutNeighbors(1).empty()) {
      AdaptiveWorld world(graph, 2, std::move(candidate));
      const auto activated = world.Observe(0u);
      EXPECT_EQ(activated.size(), 2u);
      EXPECT_TRUE(world.TargetReached());
      return;
    }
  }
  FAIL() << "realization never sampled";
}

TEST(WorldTest, LtWorldPropagates) {
  // WC weights on a cycle: every node has exactly one in-edge with p=1, so
  // LT picks it surely and seeding any node activates the whole cycle.
  auto graph = BuildWeightedGraph(MakeCycle(5), WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  Rng rng(48);
  AdaptiveWorld world(*graph, DiffusionModel::kLinearThreshold, 5, rng);
  const auto activated = world.Observe(2u);
  EXPECT_EQ(activated.size(), 5u);
  EXPECT_TRUE(world.TargetReached());
}

}  // namespace
}  // namespace asti
