// Tests for diffusion/realization.h: live-edge statistics and invariants
// for both IC and LT realizations, and the world oracle: the live CSR
// against the per-edge reference world of world_oracle.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "diffusion/realization.h"
#include "world_oracle.h"

namespace asti {
namespace {

// LT: the source of each node's live in-edge, or kInvalidNode. Fails the
// test if a node has two or a live edge is not an edge of the graph.
std::vector<NodeId> ChosenSources(const Realization& world) {
  const DirectedGraph& graph = world.graph();
  std::vector<NodeId> chosen(graph.NumNodes(), kInvalidNode);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (const NodeId v : world.LiveOutNeighbors(u)) {
      EXPECT_EQ(chosen[v], kInvalidNode) << "node " << v << " has two live in-edges";
      auto sources = graph.InNeighbors(v);
      EXPECT_NE(std::find(sources.begin(), sources.end(), u), sources.end())
          << u << " -> " << v << " is live but not an edge";
      chosen[v] = u;
    }
  }
  return chosen;
}

DirectedGraph UniformGraph(double p) {
  Rng rng(21);
  auto graph =
      BuildWeightedGraph(MakeErdosRenyi(60, 400, rng), WeightScheme::kUniform, p);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(IcRealizationTest, LiveFractionMatchesProbability) {
  const DirectedGraph graph = UniformGraph(0.3);
  Rng rng(22);
  size_t live = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    live += Realization::SampleIc(graph, rng).CountLiveEdges();
  }
  const double fraction =
      static_cast<double>(live) / (static_cast<double>(trials) * graph.NumEdges());
  EXPECT_NEAR(fraction, 0.3, 0.01);
}

TEST(IcRealizationTest, ProbabilityOneEdgesAlwaysLive) {
  const DirectedGraph graph = UniformGraph(1.0);
  Rng rng(23);
  const Realization realization = Realization::SampleIc(graph, rng);
  EXPECT_EQ(realization.CountLiveEdges(), graph.NumEdges());
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    auto live = realization.LiveOutNeighbors(u);
    auto all = graph.OutNeighbors(u);
    EXPECT_TRUE(std::equal(live.begin(), live.end(), all.begin(), all.end())) << "node " << u;
  }
}

TEST(IcRealizationTest, PerEdgeFrequencyMatchesItsProbability) {
  // Mixed probabilities: check each edge individually.
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.2).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, 0.8).ok());
  const DirectedGraph graph = std::move(builder.Build()).value();
  Rng rng(24);
  int live0 = 0;
  int live1 = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const Realization realization = Realization::SampleIc(graph, rng);
    live0 += oracle::Live(realization, 0, 1) ? 1 : 0;
    live1 += oracle::Live(realization, 0, 2) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(live0) / trials, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(live1) / trials, 0.8, 0.01);
}

TEST(IcRealizationTest, DeterministicGivenRngState) {
  const DirectedGraph graph = UniformGraph(0.5);
  Rng rng1(25);
  Rng rng2(25);
  const Realization a = Realization::SampleIc(graph, rng1);
  const Realization b = Realization::SampleIc(graph, rng2);
  EXPECT_EQ(oracle::LiveOut(a), oracle::LiveOut(b));
}

DirectedGraph WcGraph() {
  Rng rng(26);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(80, 600, rng),
                                  WeightScheme::kWeightedCascade);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(LtRealizationTest, AtMostOneLiveInEdgePerNode) {
  const DirectedGraph graph = WcGraph();
  Rng rng(27);
  for (int t = 0; t < 50; ++t) {
    const Realization realization = Realization::SampleLt(graph, rng);
    std::vector<int> live_in(graph.NumNodes(), 0);
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      for (const NodeId v : realization.LiveOutNeighbors(u)) ++live_in[v];
    }
    const std::vector<NodeId> chosen = ChosenSources(realization);
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      EXPECT_LE(live_in[v], 1);
      EXPECT_EQ(live_in[v] == 1, chosen[v] != kInvalidNode);
    }
  }
}

TEST(LtRealizationTest, WeightedCascadeAlwaysPicksAnEdge) {
  // Under WC the in-probabilities of any node with indeg > 0 sum to exactly
  // 1, so LT always selects a live in-edge for such nodes.
  const DirectedGraph graph = WcGraph();
  Rng rng(28);
  const Realization realization = Realization::SampleLt(graph, rng);
  const std::vector<NodeId> chosen = ChosenSources(realization);
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (graph.InDegree(v) > 0) {
      EXPECT_NE(chosen[v], kInvalidNode) << "node " << v;
    }
  }
}

TEST(LtRealizationTest, ChoiceFrequencyMatchesEdgeProbability) {
  // Node 2 has in-edges from 0 (p=.25) and 1 (p=.25): each chosen ~25%,
  // none ~50%.
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 2, 0.25).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.25).ok());
  const DirectedGraph graph = std::move(builder.Build()).value();
  Rng rng(29);
  int chose0 = 0;
  int chose1 = 0;
  int none = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const Realization realization = Realization::SampleLt(graph, rng);
    const NodeId source = ChosenSources(realization)[2];
    if (source == 0) {
      ++chose0;
    } else if (source == 1) {
      ++chose1;
    } else {
      ++none;
    }
  }
  EXPECT_NEAR(static_cast<double>(chose0) / trials, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(chose1) / trials, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(none) / trials, 0.50, 0.02);
}

TEST(LtRealizationTest, CountLiveEdgesEqualsNodesWithChoice) {
  const DirectedGraph graph = WcGraph();
  Rng rng(30);
  const Realization realization = Realization::SampleLt(graph, rng);
  const std::vector<NodeId> chosen = ChosenSources(realization);
  const size_t with_choice = static_cast<size_t>(
      std::count_if(chosen.begin(), chosen.end(), [](NodeId s) { return s != kInvalidNode; }));
  EXPECT_EQ(realization.CountLiveEdges(), with_choice);
}

// --- World oracle ----------------------------------------------------------

// The oracle graphs reach every pick path: uniform nodes (the LT slot rule),
// mixed nodes (the scan), both in one graph, and uniform nodes whose slots
// stop short of x = 1.
TEST(WorldOracleTest, GraphsCoverEveryPickPath) {
  for (const auto& [name, graph] : oracle::OracleGraphs()) {
    ASSERT_TRUE(ValidateLtCompatible(graph).ok()) << name;
    size_t uniform = 0;
    size_t mixed = 0;
    size_t short_of_one = 0;
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      if (graph.InDegree(v) == 0) continue;
      if (const std::optional<double> p = graph.UniformInProbability(v)) {
        ++uniform;
        if (*p * graph.InDegree(v) < 1.0) ++short_of_one;
      } else {
        ++mixed;
      }
    }
    if (name == "wc") {
      EXPECT_EQ(mixed, 0u);
      EXPECT_GT(uniform, 0u);
    } else if (name == "uniform") {
      EXPECT_EQ(mixed, 0u);
      EXPECT_EQ(short_of_one, uniform);
    } else {
      EXPECT_GT(mixed, 0u) << name;
      if (name == "wc-reweighted") {
        EXPECT_GT(uniform, 0u);
      }
    }
  }
}

// For 200 streams per graph and model, the library world holds exactly the
// reference world's live edges, each source's in out-edge order, and
// leaves its stream where the reference leaves its own.
TEST(WorldOracleTest, LiveCsrEqualsPerEdgeWorld) {
  for (const auto& [name, graph] : oracle::OracleGraphs()) {
    for (const DiffusionModel model :
         {DiffusionModel::kIndependentCascade, DiffusionModel::kLinearThreshold}) {
      for (uint64_t seed = 0; seed < 200; ++seed) {
        Rng library_rng(seed);
        Rng reference_rng(seed);
        const Realization world = model == DiffusionModel::kIndependentCascade
                                      ? Realization::SampleIc(graph, library_rng)
                                      : Realization::SampleLt(graph, library_rng);
        const std::vector<bool> live = oracle::ReferenceLiveEdges(graph, model, reference_rng);
        ASSERT_EQ(oracle::LiveOut(world), oracle::ReferenceLiveOut(graph, live))
            << name << " " << DiffusionModelName(model) << " seed " << seed;
        EXPECT_EQ(world.CountLiveEdges(),
                  static_cast<size_t>(std::count(live.begin(), live.end(), true)));
        EXPECT_EQ(library_rng(), reference_rng())
            << name << " " << DiffusionModelName(model) << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace asti
