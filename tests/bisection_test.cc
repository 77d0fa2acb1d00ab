// Tests for baselines/bisection_seedmin.h, including its one greedy pass
// against the search over k it replaces (coverage_reference.h's eager
// greedy per probe).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "baselines/ateuc.h"
#include "baselines/bisection_seedmin.h"
#include "coverage_reference.h"
#include "diffusion/monte_carlo.h"
#include "graph/generators.h"
#include "sampling/sampler_cache.h"

namespace asti {
namespace {

DirectedGraph RandomWcGraph(NodeId n, size_t m, uint64_t seed) {
  Rng rng(seed);
  auto graph =
      BuildWeightedGraph(MakeErdosRenyi(n, m, rng), WeightScheme::kWeightedCascade);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(BisectionTest, MeetsThresholdInExpectation) {
  const DirectedGraph graph = RandomWcGraph(120, 700, 241);
  const NodeId eta = 30;
  Rng rng(242);
  const BisectionResult result = RunBisectionSeedMin(
      graph, DiffusionModel::kIndependentCascade, eta, BisectionOptions{}, rng);
  ASSERT_FALSE(result.seeds.empty());
  MonteCarloEstimator mc(graph, DiffusionModel::kIndependentCascade);
  Rng mc_rng(243);
  EXPECT_GE(mc.EstimateSpread(result.seeds, 20000, mc_rng), 0.9 * eta);
}

TEST(BisectionTest, SeedsAreDistinct) {
  const DirectedGraph graph = RandomWcGraph(100, 500, 244);
  Rng rng(245);
  const BisectionResult result = RunBisectionSeedMin(
      graph, DiffusionModel::kIndependentCascade, 25, BisectionOptions{}, rng);
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), result.seeds.size());
}

// The search Bisection is named for, over the eager greedy reference:
// exponential search for a k whose estimate n·Λ/θ reaches `target`, then
// bisection, one full greedy solve per probe; k = n when none does.
BisectionResult SearchOverK(const CollectionView& sets, double target) {
  const NodeId n = sets.num_nodes();
  const double theta = static_cast<double>(sets.NumSets());
  auto solve = [&](NodeId k) { return oracle::EagerGreedyMaxCoverage(sets, k); };
  auto spread_of_k = [&](NodeId k) {
    return static_cast<double>(n) * static_cast<double>(solve(k).covered_sets) / theta;
  };
  NodeId high = 1;
  while (high < n && spread_of_k(high) < target) high = std::min<NodeId>(n, high * 2);
  NodeId low = high > 1 ? high / 2 : 1;
  while (low < high) {
    const NodeId mid = low + (high - low) / 2;
    if (spread_of_k(mid) >= target) {
      high = mid;
    } else {
      low = mid + 1;
    }
  }
  BisectionResult result;
  result.seeds = solve(high).selected;
  result.estimated_spread = spread_of_k(high);
  result.num_samples = sets.NumSets();
  return result;
}

TEST(BisectionTest, OnePassMatchesSearch) {
  // One CELF pass at budget n keeps the shortest prefix reaching the
  // target: the k and the seeds of the search over k. η = 1 stops at the
  // first pick; η = n puts the target (1.2·η) above n, so no prefix
  // reaches it and all n picks come back, zero-gain fill included.
  struct Case {
    NodeId n;
    size_t m;
    uint64_t seed;
    DiffusionModel model;
  };
  for (const Case& c : {Case{120, 700, 241, DiffusionModel::kIndependentCascade},
                        Case{150, 700, 246, DiffusionModel::kIndependentCascade},
                        Case{100, 500, 255, DiffusionModel::kLinearThreshold},
                        Case{60, 200, 253, DiffusionModel::kIndependentCascade}}) {
    const DirectedGraph graph = RandomWcGraph(c.n, c.m, c.seed);
    for (const NodeId eta : {NodeId{1}, c.n / 10, c.n / 4, c.n / 2, c.n * 4 / 5, c.n}) {
      SCOPED_TRACE("n " + std::to_string(c.n) + " seed " + std::to_string(c.seed) +
                   " eta " + std::to_string(eta));
      SamplerCache cache(graph);
      BisectionOptions options;
      options.samples = 2048;
      options.sampler_cache = &cache;
      Rng rng(c.seed + 1);
      const BisectionResult one_pass = RunBisectionSeedMin(graph, c.model, eta, options, rng);
      const CollectionView sets = cache.Acquire(SamplerCacheKey::Rr(c.model), options.samples,
                                                nullptr, nullptr, nullptr);
      const BisectionResult search =
          SearchOverK(sets, options.target_slack * static_cast<double>(eta));
      EXPECT_EQ(one_pass.seeds, search.seeds);
      EXPECT_EQ(one_pass.estimated_spread, search.estimated_spread);
      EXPECT_EQ(one_pass.num_samples, search.num_samples);
      if (eta == 1) {
        EXPECT_EQ(one_pass.seeds.size(), 1u);
      }
      if (eta == c.n) {
        EXPECT_EQ(one_pass.seeds.size(), c.n);
      }
    }
  }
}

TEST(BisectionTest, MonotoneInEta) {
  const DirectedGraph graph = RandomWcGraph(150, 700, 248);
  Rng rng1(249);
  Rng rng2(249);
  const BisectionResult small = RunBisectionSeedMin(
      graph, DiffusionModel::kIndependentCascade, 15, BisectionOptions{}, rng1);
  const BisectionResult large = RunBisectionSeedMin(
      graph, DiffusionModel::kIndependentCascade, 60, BisectionOptions{}, rng2);
  EXPECT_LE(small.seeds.size(), large.seeds.size());
}

TEST(BisectionTest, ComparableToAteucSeedCounts) {
  // Both are non-adaptive RR-greedy selections aiming at the same slack
  // target; seed counts should land in the same ballpark (within 2x).
  const DirectedGraph graph = RandomWcGraph(200, 1000, 250);
  const NodeId eta = 50;
  Rng rng1(251);
  Rng rng2(252);
  const BisectionResult bisection = RunBisectionSeedMin(
      graph, DiffusionModel::kIndependentCascade, eta, BisectionOptions{}, rng1);
  const AteucResult ateuc =
      RunAteuc(graph, DiffusionModel::kIndependentCascade, eta, AteucOptions{}, rng2);
  EXPECT_LE(bisection.seeds.size(), 2 * ateuc.seeds.size() + 2);
  EXPECT_LE(ateuc.seeds.size(), 2 * bisection.seeds.size() + 2);
}

TEST(BisectionTest, EtaEqualsOneIsOneSeed) {
  const DirectedGraph graph = RandomWcGraph(60, 200, 253);
  Rng rng(254);
  const BisectionResult result = RunBisectionSeedMin(
      graph, DiffusionModel::kIndependentCascade, 1, BisectionOptions{}, rng);
  EXPECT_EQ(result.seeds.size(), 1u);
}

TEST(BisectionTest, LtModelWorks) {
  const DirectedGraph graph = RandomWcGraph(100, 500, 255);
  Rng rng(256);
  const BisectionResult result = RunBisectionSeedMin(
      graph, DiffusionModel::kLinearThreshold, 20, BisectionOptions{}, rng);
  EXPECT_FALSE(result.seeds.empty());
  MonteCarloEstimator mc(graph, DiffusionModel::kLinearThreshold);
  Rng mc_rng(257);
  EXPECT_GE(mc.EstimateSpread(result.seeds, 20000, mc_rng), 0.85 * 20.0);
}

}  // namespace
}  // namespace asti
