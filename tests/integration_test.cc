// End-to-end integration tests: full ASTI runs on dataset surrogates, the
// paper's qualitative evaluation claims in miniature, and cross-algorithm
// comparisons on shared hidden worlds.

#include <gtest/gtest.h>

#include <numeric>

#include "baselines/adaptim.h"
#include "baselines/ateuc.h"
#include "benchutil/experiment.h"
#include "core/asti.h"
#include "core/trim.h"
#include "graph/datasets.h"
#include "graph/generators.h"

namespace asti {
namespace {

TEST(IntegrationTest, FullRunOnNetHeptSurrogate) {
  auto graph = MakeSurrogateDataset(DatasetId::kNetHept, 0.08, 7);  // ~1.2K nodes
  ASSERT_TRUE(graph.ok());
  const NodeId eta = static_cast<NodeId>(graph->NumNodes() / 20);  // η/n = 5%
  Rng world_rng(301);
  AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, eta, world_rng);
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  Rng rng(302);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
  EXPECT_TRUE(trace.target_reached);
  EXPECT_GE(trace.total_activated, eta);
  // Sanity: far fewer seeds than η (influence amplifies).
  EXPECT_LT(trace.NumSeeds(), static_cast<size_t>(eta));
}

TEST(IntegrationTest, AdaptiveAlwaysMeetsEtaNonAdaptiveSometimesNot) {
  // Figure 8's claim in miniature: over shared hidden worlds, ASTI reaches
  // η on every realization while ATEUC both under- and over-shoots.
  Rng graph_rng(303);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(800, 2, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  const NodeId eta = 160;  // η/n = 0.2, the paper's largest setting

  CellConfig asti_config;
  asti_config.eta = eta;
  asti_config.algorithm = AlgorithmId::kAsti;
  asti_config.realizations = 12;
  asti_config.seed = 11;
  const CellResult asti = RunCell(*graph, asti_config);
  EXPECT_TRUE(asti.always_reached);

  CellConfig ateuc_config = asti_config;
  ateuc_config.algorithm = AlgorithmId::kAteuc;
  const CellResult ateuc = RunCell(*graph, ateuc_config);
  // Spread variance: non-adaptive spreads differ across realizations while
  // every adaptive spread is >= η.
  double min_spread = 1e18;
  double max_spread = 0.0;
  for (double spread : ateuc.spreads) {
    min_spread = std::min(min_spread, spread);
    max_spread = std::max(max_spread, spread);
  }
  EXPECT_GT(max_spread, min_spread);  // genuinely varies
  for (double spread : asti.spreads) EXPECT_GE(spread, eta);
}

TEST(IntegrationTest, AstiSelectsFewerSeedsThanAteuc) {
  // Figure 4/6's headline: ATEUC needs noticeably more seeds than ASTI.
  Rng graph_rng(304);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(800, 2, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  CellConfig config;
  config.eta = 120;  // η/n = 0.15
  config.realizations = 6;
  config.seed = 13;

  config.algorithm = AlgorithmId::kAsti;
  const CellResult asti = RunCell(*graph, config);
  config.algorithm = AlgorithmId::kAteuc;
  const CellResult ateuc = RunCell(*graph, config);
  EXPECT_LT(asti.aggregate.mean_seeds, ateuc.aggregate.mean_seeds);
}

TEST(IntegrationTest, AdaptImMatchesAstiSeedsButCostsMoreSamples) {
  // Figure 5's mechanism: AdaptIM needs Θ(n_i/OPT') RR-sets per round vs
  // TRIM's Θ(η_i/OPT) — on the same worlds it generates many more samples.
  Rng graph_rng(305);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(500, 2, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  CellConfig config;
  config.eta = 50;  // η/n = 0.1
  config.realizations = 3;
  config.seed = 17;
  config.keep_traces = true;

  config.algorithm = AlgorithmId::kAsti;
  const CellResult asti = RunCell(*graph, config);
  config.algorithm = AlgorithmId::kAdaptIm;
  const CellResult adaptim = RunCell(*graph, config);

  EXPECT_TRUE(adaptim.always_reached);
  // Seed counts comparable (within 2x).
  EXPECT_LT(adaptim.aggregate.mean_seeds, 2.0 * asti.aggregate.mean_seeds + 2.0);
  // Sample counts: AdaptIM strictly heavier.
  size_t asti_samples = 0;
  size_t adaptim_samples = 0;
  for (const auto& trace : asti.traces) asti_samples += trace.total_samples;
  for (const auto& trace : adaptim.traces) adaptim_samples += trace.total_samples;
  EXPECT_GT(adaptim_samples, asti_samples);
}

TEST(IntegrationTest, BatchingTradesSeedsForRounds) {
  // §6.2/6.3: growing b cuts rounds (and samples) while seed counts rise
  // only mildly.
  Rng graph_rng(306);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(600, 2, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  CellConfig config;
  config.eta = 90;
  config.realizations = 3;
  config.seed = 19;
  config.keep_traces = true;

  config.algorithm = AlgorithmId::kAsti;
  const CellResult b1 = RunCell(*graph, config);
  config.algorithm = AlgorithmId::kAsti8;
  const CellResult b8 = RunCell(*graph, config);

  size_t rounds1 = 0;
  size_t rounds8 = 0;
  for (const auto& trace : b1.traces) rounds1 += trace.rounds.size();
  for (const auto& trace : b8.traces) rounds8 += trace.rounds.size();
  EXPECT_LT(rounds8, rounds1);
  EXPECT_TRUE(b8.always_reached);
  // Seeds grow by at most ~the batch rounding slack.
  EXPECT_LT(b8.aggregate.mean_seeds, b1.aggregate.mean_seeds + 8.0 + 2.0);
}

TEST(IntegrationTest, LtModelEndToEnd) {
  auto graph = MakeSurrogateDataset(DatasetId::kNetHept, 0.05, 23);
  ASSERT_TRUE(graph.ok());
  CellConfig config;
  config.model = DiffusionModel::kLinearThreshold;
  config.eta = static_cast<NodeId>(graph->NumNodes() / 10);
  config.realizations = 3;
  for (AlgorithmId id : {AlgorithmId::kAsti, AlgorithmId::kAsti4, AlgorithmId::kAteuc}) {
    config.algorithm = id;
    const CellResult result = RunCell(*graph, config);
    EXPECT_EQ(result.spreads.size(), 3u) << AlgorithmName(id);
    if (id != AlgorithmId::kAteuc) {
      EXPECT_TRUE(result.always_reached) << AlgorithmName(id);
    }
  }
}

TEST(IntegrationTest, MarginalTruncatedGainsDiminishOnAverage) {
  // Figure 10's shape: the first seed's truncated gain dwarfs the last's.
  Rng graph_rng(307);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(700, 2, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  // Average first-seed vs last-seed truncated gain over several hidden
  // realizations (submodularity holds in expectation, not per-run).
  double first_total = 0.0;
  double last_total = 0.0;
  size_t runs_used = 0;
  for (uint64_t run = 0; run < 6; ++run) {
    Rng world_rng(308 + run);
    AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, 300, world_rng);
    Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
    Rng rng(309 + run);
    const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
    if (trace.rounds.size() < 2) continue;
    first_total += trace.rounds.front().truncated_gain;
    last_total += trace.rounds.back().truncated_gain;
    ++runs_used;
  }
  ASSERT_GE(runs_used, 3u);
  EXPECT_GT(first_total / runs_used, last_total / runs_used);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  auto graph = MakeSurrogateDataset(DatasetId::kNetHept, 0.05, 29);
  ASSERT_TRUE(graph.ok());
  CellConfig config;
  config.eta = 40;
  config.algorithm = AlgorithmId::kAsti2;
  config.realizations = 2;
  config.seed = 31;
  const CellResult a = RunCell(*graph, config);
  const CellResult b = RunCell(*graph, config);
  EXPECT_EQ(a.spreads, b.spreads);
  EXPECT_EQ(a.seed_counts, b.seed_counts);
}

}  // namespace
}  // namespace asti
