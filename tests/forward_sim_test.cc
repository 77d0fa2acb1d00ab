// Tests for diffusion/forward_sim.h, including a replay of the paper's
// Figure 1 walk-through (adaptive rounds on a fixed realization) and the
// world oracle's BFS (world_oracle.h) as a reference for the live walk.

#include <gtest/gtest.h>

#include <algorithm>

#include "diffusion/forward_sim.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "world_oracle.h"

namespace asti {
namespace {

// Deterministic IC realization: prob-1 edges are always live.
DirectedGraph DeterministicChain() {
  GraphBuilder builder(4);
  EXPECT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, 1.0).ok());
  return std::move(builder.Build()).value();
}

TEST(ForwardSimTest, FullChainPropagation) {
  const DirectedGraph graph = DeterministicChain();
  Rng rng(31);
  const Realization realization = Realization::SampleIc(graph, rng);
  ForwardSimulator simulator(graph);
  EXPECT_EQ(simulator.Spread(realization, {0}), 4u);
  EXPECT_EQ(simulator.Spread(realization, {2}), 2u);
  EXPECT_EQ(simulator.Spread(realization, {3}), 1u);
}

TEST(ForwardSimTest, DuplicateSeedsCountOnce) {
  const DirectedGraph graph = DeterministicChain();
  Rng rng(32);
  const Realization realization = Realization::SampleIc(graph, rng);
  ForwardSimulator simulator(graph);
  EXPECT_EQ(simulator.Spread(realization, {3, 3, 3}), 1u);
}

TEST(ForwardSimTest, MultipleSeedsUnionReachability) {
  // Two disjoint chains.
  GraphBuilder builder(6);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(3, 4, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(4, 5, 1.0).ok());
  const DirectedGraph graph = std::move(builder.Build()).value();
  Rng rng(33);
  const Realization realization = Realization::SampleIc(graph, rng);
  ForwardSimulator simulator(graph);
  EXPECT_EQ(simulator.Spread(realization, {0, 3}), 5u);
}

TEST(ForwardSimTest, ResidualExcludesActiveNodes) {
  const DirectedGraph graph = DeterministicChain();
  Rng rng(34);
  const Realization realization = Realization::SampleIc(graph, rng);
  ForwardSimulator simulator(graph);
  BitVector active(4);
  active.Set(2);  // node 2 already active: propagation stops there
  const auto activated = simulator.PropagateResidual(realization, {0}, active);
  ASSERT_EQ(activated.size(), 2u);
  EXPECT_EQ(activated[0], 0u);
  EXPECT_EQ(activated[1], 1u);
}

TEST(ForwardSimTest, ActiveSeedContributesNothing) {
  const DirectedGraph graph = DeterministicChain();
  Rng rng(35);
  const Realization realization = Realization::SampleIc(graph, rng);
  ForwardSimulator simulator(graph);
  BitVector active(4);
  active.Set(0);
  EXPECT_TRUE(simulator.PropagateResidual(realization, {0}, active).empty());
}

TEST(ForwardSimTest, LtPropagationFollowsChosenEdges) {
  // 0 -> 1 (p=1): LT always picks it; 1 -> 2 (p=0.5): choice is random,
  // so force it via a specific realization draw and just verify both cases.
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.5).ok());
  const DirectedGraph graph = std::move(builder.Build()).value();
  Rng rng(36);
  ForwardSimulator simulator(graph);
  int spread3 = 0;
  int spread2 = 0;
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    const Realization realization = Realization::SampleLt(graph, rng);
    const size_t spread = simulator.Spread(realization, {0});
    if (spread == 3) {
      ++spread3;
    } else if (spread == 2) {
      ++spread2;
    } else {
      FAIL() << "unexpected spread " << spread;
    }
  }
  EXPECT_NEAR(static_cast<double>(spread3) / trials, 0.5, 0.03);
  EXPECT_NEAR(static_cast<double>(spread2) / trials, 0.5, 0.03);
}

// --- Figure 1 replay -------------------------------------------------------
// The paper's running example: under realization φ (Fig. 1b) the live edges
// are v1->v4, v1->v6, v6->v5, v3->v5, v5->v2 and v2->v1; v4->v3 is blocked.
// Selecting v1 activates {v1, v4, v6, v5, v2}... — careful: the paper's
// figure shows v1 activating v4 and v6 only in round 1 because influence of
// v6 on v5 is *not yet revealed* in Fig. 1c; the realization we encode below
// matches Fig. 1c/1d exactly: v1->v4 live, v1->v6 live, v6->v5 blocked,
// v3->v5 live, v5->v2 live, v4->v3 blocked, v2->v1 irrelevant.
class Figure1Replay : public ::testing::Test {
 protected:
  void SetUp() override {
    auto graph = MakePaperFigure1Graph();
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<DirectedGraph>(std::move(graph).value());
    // Draw realizations until we hit the one of Fig. 1c/1d.
    Rng rng(1);
    for (int attempt = 0; attempt < 100000; ++attempt) {
      Realization candidate = Realization::SampleIc(*graph_, rng);
      if (Matches(candidate)) {
        realization_ = std::make_unique<Realization>(std::move(candidate));
        return;
      }
    }
    FAIL() << "never sampled the Figure 1 realization";
  }

  bool Matches(const Realization& realization) {
    auto live = [&](NodeId u, NodeId v) {
      auto neighbors = graph_->OutNeighbors(u);
      if (std::find(neighbors.begin(), neighbors.end(), v) == neighbors.end()) {
        ADD_FAILURE() << "no edge " << u << "->" << v;
      }
      return oracle::Live(realization, u, v);
    };
    return live(0, 3) && live(0, 5) && !live(5, 4) && live(2, 4) && !live(3, 2) &&
           live(4, 1);
  }

  std::unique_ptr<DirectedGraph> graph_;
  std::unique_ptr<Realization> realization_;
};

TEST_F(Figure1Replay, RoundOneActivatesV1V4V6) {
  ForwardSimulator simulator(*graph_);
  BitVector active(6);
  auto round1 = simulator.PropagateResidual(*realization_, {0}, active);
  std::sort(round1.begin(), round1.end());
  // v1 (=0) activates v4 (=3) and v6 (=5); v6->v5 is blocked.
  EXPECT_EQ(round1, (std::vector<NodeId>{0, 3, 5}));
}

TEST_F(Figure1Replay, RoundTwoWithV3ReachesEta) {
  ForwardSimulator simulator(*graph_);
  BitVector active(6);
  for (NodeId v : simulator.PropagateResidual(*realization_, {0}, active)) {
    active.Set(v);
  }
  auto round2 = simulator.PropagateResidual(*realization_, {2}, active);
  std::sort(round2.begin(), round2.end());
  // v3 (=2) activates v5 (=4) which activates v2 (=1): 3 new, total 6... the
  // paper counts 5 active because v2->v1 feedback is moot; our total is
  // {0,3,5} + {1,2,4} = 6 ≥ η = 4 — v5->v2 live matches Fig. 1d's 5 total
  // when v2 is counted. Either way the η = 4 target is met in round 2.
  EXPECT_EQ(round2, (std::vector<NodeId>{1, 2, 4}));
}

// --- World oracle ----------------------------------------------------------

// On every oracle graph, both models, random seed sets (duplicates
// allowed) and random active masks, the live walk returns the reference
// BFS's list, order included. The reference reads every out-edge and asks
// the per-edge world of the same stream.
TEST(WorldOracleTest, WalkMatchesPerEdgeBfs) {
  Rng draws(77);
  for (const auto& [name, graph] : oracle::OracleGraphs()) {
    ForwardSimulator simulator(graph);
    const NodeId n = graph.NumNodes();
    for (const DiffusionModel model :
         {DiffusionModel::kIndependentCascade, DiffusionModel::kLinearThreshold}) {
      for (uint64_t seed = 0; seed < 50; ++seed) {
        Rng library_rng(seed);
        Rng reference_rng(seed);
        const Realization world = model == DiffusionModel::kIndependentCascade
                                      ? Realization::SampleIc(graph, library_rng)
                                      : Realization::SampleLt(graph, library_rng);
        const std::vector<bool> live = oracle::ReferenceLiveEdges(graph, model, reference_rng);
        for (int trial = 0; trial < 4; ++trial) {
          std::vector<NodeId> seeds(1 + draws.NextBounded(8));
          for (NodeId& s : seeds) s = static_cast<NodeId>(draws.NextBounded(n));
          BitVector active(n);
          const double density = 0.1 * static_cast<double>(trial);
          for (NodeId v = 0; v < n; ++v) {
            if (draws.NextBernoulli(density)) active.Set(v);
          }
          const std::string where = name + " " + DiffusionModelName(model) + " seed " +
                                    std::to_string(seed) + " trial " + std::to_string(trial);
          ASSERT_EQ(simulator.Propagate(world, seeds),
                    oracle::ReferencePropagate(graph, live, seeds, nullptr))
              << where;
          ASSERT_EQ(simulator.PropagateResidual(world, seeds, active),
                    oracle::ReferencePropagate(graph, live, seeds, &active))
              << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace asti
