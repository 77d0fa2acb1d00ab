// Tests for graph/wcc.h, graph/degree_stats.h, graph/datasets.h.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/datasets.h"
#include "graph/degree_stats.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/wcc.h"

namespace asti {
namespace {

DirectedGraph TwoComponents() {
  // Component A: 0 -> 1 -> 2; Component B: 3 <-> 4.
  GraphBuilder builder(5);
  EXPECT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 1.0).ok());
  EXPECT_TRUE(builder.AddUndirectedEdge(3, 4, 1.0).ok());
  return std::move(builder.Build()).value();
}

TEST(WccTest, FindsComponents) {
  const WccResult wcc = ComputeWcc(TwoComponents());
  EXPECT_EQ(wcc.num_components, 2u);
  EXPECT_EQ(wcc.largest_size, 3u);
  EXPECT_EQ(wcc.component[0], wcc.component[1]);
  EXPECT_EQ(wcc.component[1], wcc.component[2]);
  EXPECT_EQ(wcc.component[3], wcc.component[4]);
  EXPECT_NE(wcc.component[0], wcc.component[3]);
}

TEST(WccTest, DirectionIgnored) {
  // 0 -> 1 and 2 -> 1: all weakly connected despite no directed path 0~2.
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(2, 1, 1.0).ok());
  const WccResult wcc = ComputeWcc(std::move(builder.Build()).value());
  EXPECT_EQ(wcc.num_components, 1u);
  EXPECT_EQ(wcc.largest_size, 3u);
}

TEST(WccTest, IsolatedNodesAreSingletons) {
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  const WccResult wcc = ComputeWcc(std::move(builder.Build()).value());
  EXPECT_EQ(wcc.num_components, 3u);
  EXPECT_EQ(wcc.largest_size, 2u);
}

TEST(WccTest, SizesSumToN) {
  Rng rng(11);
  auto graph =
      BuildWeightedGraph(MakeErdosRenyi(200, 150, rng), WeightScheme::kUniform, 0.1);
  ASSERT_TRUE(graph.ok());
  const WccResult wcc = ComputeWcc(*graph);
  NodeId total = 0;
  for (NodeId size : wcc.sizes) total += size;
  EXPECT_EQ(total, 200u);
}

TEST(DegreeStatsTest, BasicStats) {
  const DirectedGraph graph = TwoComponents();
  const DegreeStats stats = ComputeDegreeStats(graph);
  EXPECT_DOUBLE_EQ(stats.average_out_degree, 4.0 / 5.0);
  EXPECT_EQ(stats.max_out_degree, 1u);
  EXPECT_EQ(stats.max_in_degree, 1u);
}

TEST(DegreeStatsTest, DistributionSumsToOne) {
  Rng rng(12);
  auto graph =
      BuildWeightedGraph(MakeErdosRenyi(300, 900, rng), WeightScheme::kUniform, 0.1);
  ASSERT_TRUE(graph.ok());
  const auto distribution = ComputeDegreeDistribution(*graph);
  double total = 0.0;
  for (const auto& point : distribution) total += point.fraction;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(DegreeStatsTest, DistributionMatchesStar) {
  auto graph = BuildWeightedGraph(MakeStar(10), WeightScheme::kUniform, 0.5);
  ASSERT_TRUE(graph.ok());
  const auto distribution = ComputeDegreeDistribution(*graph);
  ASSERT_EQ(distribution.size(), 2u);
  EXPECT_EQ(distribution[0].degree, 0u);
  EXPECT_NEAR(distribution[0].fraction, 0.9, 1e-9);
  EXPECT_EQ(distribution[1].degree, 9u);
  EXPECT_NEAR(distribution[1].fraction, 0.1, 1e-9);
}

TEST(DegreeStatsTest, LogBinnedCoversPositiveDegrees) {
  Rng rng(13);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(1000, 2, rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  const auto binned = ComputeLogBinnedDistribution(*graph);
  ASSERT_FALSE(binned.empty());
  EXPECT_EQ(binned[0].degree, 1u);
  for (size_t i = 1; i < binned.size(); ++i) {
    EXPECT_EQ(binned[i].degree, binned[i - 1].degree * 2);
  }
  // Power-law shape: the densest bucket carries far more per-degree mass
  // than the tail bucket. (The first bucket can be empty: BA with attach=2
  // has minimum degree 2.)
  double peak = 0.0;
  for (const auto& point : binned) peak = std::max(peak, point.fraction);
  EXPECT_GT(peak, 100.0 * binned.back().fraction);
}

TEST(DatasetsTest, CatalogHasFourEntries) {
  EXPECT_EQ(AllDatasets().size(), 4u);
  EXPECT_STREQ(GetDatasetInfo(DatasetId::kNetHept).name, "NetHEPT");
  EXPECT_STREQ(GetDatasetInfo(DatasetId::kLiveJournal).name, "LiveJournal");
}

TEST(DatasetsTest, NameLookupIsCaseInsensitive) {
  auto id = DatasetIdFromName("nethept");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, DatasetId::kNetHept);
  EXPECT_TRUE(DatasetIdFromName("EPINIONS").ok());
  EXPECT_FALSE(DatasetIdFromName("flickr").ok());
}

TEST(DatasetsTest, SurrogateIsDeterministic) {
  auto a = MakeSurrogateDataset(DatasetId::kNetHept, 0.05, 7);
  auto b = MakeSurrogateDataset(DatasetId::kNetHept, 0.05, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->NumNodes(), b->NumNodes());
  EXPECT_EQ(a->NumEdges(), b->NumEdges());
}

TEST(DatasetsTest, SurrogateScalesDown) {
  auto small = MakeSurrogateDataset(DatasetId::kEpinions, 0.02, 7);
  ASSERT_TRUE(small.ok());
  const DatasetInfo& info = GetDatasetInfo(DatasetId::kEpinions);
  EXPECT_LT(small->NumNodes(), info.surrogate_nodes / 10);
  EXPECT_GT(small->NumNodes(), 63u);
}

TEST(DatasetsTest, WeightedCascadeAppliedByDefault) {
  auto graph = MakeSurrogateDataset(DatasetId::kNetHept, 0.05, 7);
  ASSERT_TRUE(graph.ok());
  for (NodeId v = 0; v < graph->NumNodes(); ++v) {
    if (graph->InDegree(v) > 0) {
      EXPECT_NEAR(graph->InProbabilitySum(v), 1.0, 1e-9);
    }
  }
}

TEST(DatasetsTest, RejectsNonPositiveScale) {
  EXPECT_FALSE(MakeSurrogateDataset(DatasetId::kNetHept, 0.0).ok());
  EXPECT_FALSE(MakeSurrogateDataset(DatasetId::kNetHept, -1.0).ok());
}

// asm_tool checks a surrogate's snapshot against this count, so it must be
// the n the builder makes; a scale past every NodeId is refused, not cast.
TEST(DatasetsTest, SurrogateNodeCountIsTheBuiltN) {
  for (const DatasetInfo& info : AllDatasets()) {
    for (const double scale : {0.001, 0.01, 0.1}) {
      const auto count = SurrogateNodeCount(info.id, scale);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, MakeSurrogateDataset(info.id, scale, 7)->NumNodes())
          << info.name << " at " << scale;
    }
  }
  EXPECT_EQ(*SurrogateNodeCount(DatasetId::kNetHept, 0.1), 1520u);
  EXPECT_EQ(*SurrogateNodeCount(DatasetId::kNetHept, 0.2), 3040u);
  EXPECT_EQ(*SurrogateNodeCount(DatasetId::kNetHept, 0.001), 64u);
  EXPECT_FALSE(SurrogateNodeCount(DatasetId::kNetHept, 0.0).ok());
  EXPECT_FALSE(SurrogateNodeCount(DatasetId::kNetHept, std::nan("")).ok());
  EXPECT_FALSE(SurrogateNodeCount(DatasetId::kNetHept, 1e12).ok());
  EXPECT_FALSE(MakeSurrogateDataset(DatasetId::kNetHept, 1e12).ok());
}

}  // namespace
}  // namespace asti
