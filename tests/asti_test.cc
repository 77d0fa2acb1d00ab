// Tests for core/asti.h: the adaptive loop's invariants — the target is
// always reached, traces are consistent, truncated gains are bookkept
// exactly, and the loop works with every selector.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "baselines/degree_adaptive.h"
#include "core/asti.h"
#include "core/trim.h"
#include "graph/generators.h"

namespace asti {
namespace {

DirectedGraph RandomWcGraph(NodeId n, size_t m, uint64_t seed) {
  Rng rng(seed);
  auto graph =
      BuildWeightedGraph(MakeErdosRenyi(n, m, rng), WeightScheme::kWeightedCascade);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(AstiTest, AlwaysReachesTargetIc) {
  const DirectedGraph graph = RandomWcGraph(100, 500, 121);
  for (uint64_t run = 0; run < 5; ++run) {
    Rng world_rng(200 + run);
    AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 30, world_rng);
    Trim trim(graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
    Rng rng(300 + run);
    const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
    EXPECT_TRUE(trace.target_reached);
    EXPECT_GE(trace.total_activated, 30u);
    EXPECT_FALSE(trace.seeds.empty());
  }
}

TEST(AstiTest, AlwaysReachesTargetLt) {
  const DirectedGraph graph = RandomWcGraph(100, 500, 122);
  Rng world_rng(123);
  AdaptiveWorld world(graph, DiffusionModel::kLinearThreshold, 25, world_rng);
  Trim trim(graph, DiffusionModel::kLinearThreshold, TrimOptions{0.5});
  Rng rng(124);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
  EXPECT_TRUE(trace.target_reached);
  EXPECT_GE(trace.total_activated, 25u);
}

TEST(AstiTest, TraceInternallyConsistent) {
  const DirectedGraph graph = RandomWcGraph(80, 400, 125);
  Rng world_rng(126);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 20, world_rng);
  Trim trim(graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  Rng rng(127);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);

  // Round indices are 1..k; shortfalls strictly decrease by truncated gain;
  // activations sum to the final total.
  NodeId activated_total = 0;
  NodeId expected_shortfall = 20;
  size_t seed_total = 0;
  for (size_t i = 0; i < trace.rounds.size(); ++i) {
    const RoundRecord& record = trace.rounds[i];
    EXPECT_EQ(record.round, i + 1);
    EXPECT_EQ(record.shortfall_before, expected_shortfall);
    EXPECT_GE(record.newly_activated, 1u);
    EXPECT_EQ(record.truncated_gain,
              std::min<NodeId>(record.newly_activated, record.shortfall_before));
    activated_total += record.newly_activated;
    seed_total += record.seeds.size();
    expected_shortfall = expected_shortfall > record.newly_activated
                             ? expected_shortfall - record.newly_activated
                             : 0;
  }
  EXPECT_EQ(activated_total, trace.total_activated);
  EXPECT_EQ(seed_total, trace.seeds.size());
  EXPECT_EQ(expected_shortfall, 0u);
  // Every round but the last leaves a positive shortfall.
  for (size_t i = 0; i + 1 < trace.rounds.size(); ++i) {
    EXPECT_GT(trace.rounds[i].shortfall_before, trace.rounds[i].truncated_gain);
  }
}

TEST(AstiTest, SeedsAreDistinctAndWereInactive) {
  const DirectedGraph graph = RandomWcGraph(120, 600, 128);
  Rng world_rng(129);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 40, world_rng);
  Trim batched(graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 4});
  Rng rng(130);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, batched, rng);
  std::set<NodeId> unique(trace.seeds.begin(), trace.seeds.end());
  EXPECT_EQ(unique.size(), trace.seeds.size());
}

TEST(AstiTest, BatchedSelectorTakesFewerRounds) {
  const DirectedGraph graph = RandomWcGraph(150, 700, 131);
  Rng world_rng1(132);
  AdaptiveWorld world1(graph, DiffusionModel::kIndependentCascade, 50, world_rng1);
  Trim trim(graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  Rng rng1(133);
  const AdaptiveRunTrace single = RunAdaptivePolicy(world1, trim, rng1);

  Rng world_rng2(132);  // same hidden realization
  AdaptiveWorld world2(graph, DiffusionModel::kIndependentCascade, 50, world_rng2);
  Trim trim_8(graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 8});
  Rng rng2(134);
  const AdaptiveRunTrace batched = RunAdaptivePolicy(world2, trim_8, rng2);

  EXPECT_LT(batched.rounds.size(), single.rounds.size());
  // Batched never selects fewer seeds (the adaptivity gap direction).
  EXPECT_GE(batched.NumSeeds() + 1, single.NumSeeds());
}

TEST(AstiTest, EtaEqualsOneTerminatesInOneRound) {
  const DirectedGraph graph = RandomWcGraph(50, 200, 135);
  Rng world_rng(136);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 1, world_rng);
  Trim trim(graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  Rng rng(137);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
  EXPECT_EQ(trace.rounds.size(), 1u);
  EXPECT_TRUE(trace.target_reached);
}

TEST(AstiTest, EtaEqualsNActivatesEverything) {
  // Deterministic path: everything reachable from node 0 only.
  auto graph = BuildWeightedGraph(MakePath(12), WeightScheme::kUniform, 1.0);
  ASSERT_TRUE(graph.ok());
  Rng world_rng(138);
  AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, 12, world_rng);
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  Rng rng(139);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
  EXPECT_TRUE(trace.target_reached);
  EXPECT_EQ(trace.total_activated, 12u);
  // Optimal here is the single seed 0; TRIM should find it immediately.
  EXPECT_EQ(trace.NumSeeds(), 1u);
  EXPECT_EQ(trace.seeds[0], 0u);
}

TEST(AstiTest, WorksWithDegreeHeuristic) {
  const DirectedGraph graph = RandomWcGraph(100, 500, 140);
  Rng world_rng(141);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 30, world_rng);
  DegreeAdaptive degree(graph);
  Rng rng(142);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, degree, rng);
  EXPECT_TRUE(trace.target_reached);
}

TEST(AstiTest, TraceAggregation) {
  const DirectedGraph graph = RandomWcGraph(80, 400, 143);
  std::vector<AdaptiveRunTrace> traces;
  for (uint64_t run = 0; run < 4; ++run) {
    Rng world_rng(150 + run);
    AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 20, world_rng);
    Trim trim(graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
    Rng rng(160 + run);
    traces.push_back(RunAdaptivePolicy(world, trim, rng));
  }
  const RunAggregate aggregate = Aggregate(traces);
  EXPECT_EQ(aggregate.runs, 4u);
  EXPECT_EQ(aggregate.runs_reaching_target, 4u);
  EXPECT_GE(aggregate.mean_spread, 20.0);
  EXPECT_GE(aggregate.max_spread, aggregate.min_spread);
  EXPECT_GT(aggregate.mean_seeds, 0.0);
  const std::string summary = Summarize(aggregate);
  EXPECT_NE(summary.find("reached=4/4"), std::string::npos);
}

}  // namespace
}  // namespace asti
