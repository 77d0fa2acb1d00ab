// Edge-case and determinism-regression tests across modules: degenerate
// graphs, boundary thresholds, golden deterministic outputs that lock the
// RNG and algorithm behaviour across refactors.

#include <gtest/gtest.h>

#include <numeric>

#include "core/asti.h"
#include "core/trim.h"
#include "diffusion/world.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/wcc.h"
#include "sampling/mrr_set.h"
#include "sampling/root_size.h"

namespace asti {
namespace {

TEST(EdgeCasesTest, SingleNodeGraph) {
  GraphBuilder builder(1);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  Rng world_rng(1);
  AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, 1, world_rng);
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  Rng rng(2);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
  EXPECT_TRUE(trace.target_reached);
  EXPECT_EQ(trace.NumSeeds(), 1u);
  EXPECT_EQ(trace.seeds[0], 0u);
}

TEST(EdgeCasesTest, EdgelessGraphNeedsEtaSeeds) {
  GraphBuilder builder(10);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  Rng world_rng(3);
  AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, 6, world_rng);
  Trim batched(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 2});
  Rng rng(4);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, batched, rng);
  EXPECT_TRUE(trace.target_reached);
  EXPECT_EQ(trace.NumSeeds(), 6u);  // nothing propagates: every seed counts once
  EXPECT_EQ(trace.rounds.size(), 3u);
}

TEST(EdgeCasesTest, TwoNodeWorldBothModels) {
  GraphBuilder builder(2);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  for (DiffusionModel model :
       {DiffusionModel::kIndependentCascade, DiffusionModel::kLinearThreshold}) {
    Rng world_rng(5);
    AdaptiveWorld world(*graph, model, 2, world_rng);
    Trim trim(*graph, model, TrimOptions{0.5});
    Rng rng(6);
    const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
    EXPECT_TRUE(trace.target_reached) << DiffusionModelName(model);
    EXPECT_EQ(trace.NumSeeds(), 1u) << DiffusionModelName(model);
    EXPECT_EQ(trace.seeds[0], 0u) << DiffusionModelName(model);
  }
}

TEST(EdgeCasesTest, DisconnectedComponentsForceMultipleSeeds) {
  // Two disjoint prob-1 chains of length 5; eta = 10 needs both.
  GraphBuilder builder(10);
  for (NodeId u = 0; u < 4; ++u) ASSERT_TRUE(builder.AddEdge(u, u + 1, 1.0).ok());
  for (NodeId u = 5; u < 9; ++u) ASSERT_TRUE(builder.AddEdge(u, u + 1, 1.0).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(ComputeWcc(*graph).num_components, 2u);
  Rng world_rng(7);
  AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, 10, world_rng);
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  Rng rng(8);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
  EXPECT_TRUE(trace.target_reached);
  EXPECT_EQ(trace.NumSeeds(), 2u);
  // The two seeds must be the two chain heads.
  const std::set<NodeId> seeds(trace.seeds.begin(), trace.seeds.end());
  EXPECT_TRUE(seeds.count(0));
  EXPECT_TRUE(seeds.count(5));
}

TEST(EdgeCasesTest, MrrWithShortfallEqualToPopulation) {
  // η_i == n_i ⇒ k == 1: mRR-sets degenerate to single-root RR-sets.
  GraphBuilder builder(6);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RootSizeSampler root_size(6, 6);
  RrCollection collection(6);
  std::vector<NodeId> all_nodes(6);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const NodeId k = root_size.Sample(rng);
    EXPECT_EQ(k, 1u);
    sampler.Generate(all_nodes, nullptr, k, collection, rng);
  }
  for (size_t s = 0; s < collection.NumSets(); ++s) {
    EXPECT_LE(collection.Set(s).size(), 2u);  // root plus at most one hop
  }
}

// --- Golden determinism locks ----------------------------------------------

TEST(GoldenTest, RngFirstDrawsForSeed42) {
  Rng rng(42);
  EXPECT_EQ(rng(), 1546998764402558742ULL);
  EXPECT_EQ(rng(), 6990951692964543102ULL);
  EXPECT_EQ(rng(), 12544586762248559009ULL);
}

TEST(GoldenTest, SurrogateSizesStable) {
  auto graph = MakeSurrogateDataset(DatasetId::kNetHept, 0.1, 7);
  ASSERT_TRUE(graph.ok());
  // Locks generator determinism: any change to the sampling order or the
  // dataset calibration shows up here first.
  EXPECT_EQ(graph->NumNodes(), 1520u);
  const EdgeId m = graph->NumEdges();
  EXPECT_GT(m, 4000u);
  EXPECT_LT(m, 7000u);
  auto again = MakeSurrogateDataset(DatasetId::kNetHept, 0.1, 7);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->NumEdges(), m);
}

TEST(GoldenTest, AdaptiveRunFullyDeterministic) {
  auto graph = MakeSurrogateDataset(DatasetId::kNetHept, 0.1, 7);
  ASSERT_TRUE(graph.ok());
  auto run_once = [&]() {
    Rng world_rng(11);
    AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, 60, world_rng);
    Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
    Rng rng(12);
    return RunAdaptivePolicy(world, trim, rng);
  };
  const AdaptiveRunTrace a = run_once();
  const AdaptiveRunTrace b = run_once();
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.total_activated, b.total_activated);
  EXPECT_EQ(a.total_samples, b.total_samples);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].newly_activated, b.rounds[i].newly_activated);
    EXPECT_EQ(a.rounds[i].num_samples, b.rounds[i].num_samples);
  }
}

}  // namespace
}  // namespace asti
