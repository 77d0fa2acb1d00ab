// Tests for core/trim.h: schedule constants against Algorithms 2 and 3's
// pseudocode (Algorithm 2 is Algorithm 3 at b = 1, exactly), selection
// quality against the Monte-Carlo oracle, the Example 2.3 behaviour
// (truncated spread picks v2/v3, not v1), and batch behaviour at b ≥ 2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "core/trim.h"
#include "diffusion/monte_carlo.h"
#include "graph/generators.h"
#include "stats/concentration.h"
#include "util/bit_vector.h"

namespace asti {
namespace {

constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;

ResidualView FullGraphView(const BitVector& active, const std::vector<NodeId>& inactive,
                           NodeId shortfall) {
  ResidualView view;
  view.active = &active;
  view.inactive_nodes = &inactive;
  view.shortfall = shortfall;
  return view;
}

TEST(TrimScheduleTest, MatchesAlgorithm2Lines1To5) {
  const NodeId ni = 1000;
  const NodeId eta_i = 50;
  const double eps = 0.5;
  const TrimSchedule schedule = ComputeTrimSchedule(ni, eta_i, 1, eps);

  const double delta = eps / (100.0 * kOneMinusInvE * (1.0 - eps) * eta_i);
  EXPECT_NEAR(schedule.delta, delta, 1e-15);
  EXPECT_NEAR(schedule.eps_hat, 99.0 * eps / (100.0 - eps), 1e-15);
  const double root =
      std::sqrt(std::log(6.0 / delta)) + std::sqrt(std::log(1000.0) + std::log(6.0 / delta));
  const double theta_max = 2.0 * 1000.0 * root * root / (schedule.eps_hat * schedule.eps_hat);
  EXPECT_NEAR(schedule.theta_max, theta_max, 1e-6);
  EXPECT_EQ(schedule.theta_zero,
            static_cast<size_t>(std::ceil(theta_max * schedule.eps_hat *
                                          schedule.eps_hat / 1000.0)));
  EXPECT_EQ(schedule.max_iterations,
            static_cast<size_t>(std::ceil(std::log2(
                theta_max / static_cast<double>(schedule.theta_zero)))) + 1);
  EXPECT_NEAR(schedule.a1,
              std::log(3.0 * static_cast<double>(schedule.max_iterations) / delta) +
                  std::log(1000.0),
              1e-12);
  EXPECT_NEAR(schedule.a2,
              std::log(3.0 * static_cast<double>(schedule.max_iterations) / delta),
              1e-12);
}

TEST(TrimScheduleTest, MatchesAlgorithm3Lines1To5) {
  const NodeId ni = 500;
  const NodeId eta_i = 40;
  const NodeId b = 4;
  const double eps = 0.5;
  const TrimSchedule schedule = ComputeTrimSchedule(ni, eta_i, b, eps);

  const double delta = eps / (100.0 * kOneMinusInvE * (1.0 - eps) * eta_i);
  const double rho_b = 1.0 - std::pow(0.75, 4);
  EXPECT_EQ(schedule.batch, b);
  EXPECT_NEAR(schedule.delta, delta, 1e-15);
  EXPECT_NEAR(schedule.rho_b, rho_b, 1e-12);
  const double ln_choose = LogBinomial(500.0, 4.0);
  const double root = std::sqrt(std::log(6.0 / delta)) +
                      std::sqrt((ln_choose + std::log(6.0 / delta)) / rho_b);
  const double eps_hat = 99.0 * eps / (100.0 - eps);
  const double theta_max = 2.0 * 500.0 * root * root / (4.0 * eps_hat * eps_hat);
  EXPECT_NEAR(schedule.theta_max, theta_max, 1e-6);
  EXPECT_NEAR(schedule.a1,
              std::log(3.0 * static_cast<double>(schedule.max_iterations) / delta) +
                  ln_choose,
              1e-9);
}

TEST(TrimScheduleTest, BatchOneIsAlgorithm2Exactly) {
  // With b = 1, ρ_1 = 1 and ln C(n_i, 1) = ln n_i: the schedule is
  // Algorithm 2's, bit for bit, written here with std::log(n_i).
  const double ni = 300.0;
  const double eta_i = 20.0;
  const double eps = 0.5;
  const TrimSchedule schedule = ComputeTrimSchedule(300, 20, 1, eps);

  const double delta = eps / (100.0 * kOneMinusInvE * (1.0 - eps) * eta_i);
  const double eps_hat = 99.0 * eps / (100.0 - eps);
  const double ln6d = std::log(6.0 / delta);
  const double root = std::sqrt(ln6d) + std::sqrt(std::log(ni) + ln6d);
  const double theta_max = 2.0 * ni * root * root / (eps_hat * eps_hat);
  const size_t theta_zero = static_cast<size_t>(
      std::max(1.0, std::ceil(theta_max * eps_hat * eps_hat / ni)));
  const size_t iterations = DoublingLadderIterations(theta_zero, theta_max);
  const double t = static_cast<double>(iterations);
  EXPECT_EQ(schedule.rho_b, 1.0);
  EXPECT_EQ(schedule.delta, delta);
  EXPECT_EQ(schedule.eps_hat, eps_hat);
  EXPECT_EQ(schedule.theta_max, theta_max);
  EXPECT_EQ(schedule.theta_zero, theta_zero);
  EXPECT_EQ(schedule.max_iterations, iterations);
  EXPECT_EQ(schedule.a1, std::log(3.0 * t / delta) + std::log(ni));
  EXPECT_EQ(schedule.a2, std::log(3.0 * t / delta));
}

TEST(TrimScheduleTest, ThetaZeroAtLeastOne) {
  const TrimSchedule schedule = ComputeTrimSchedule(4, 2, 1, 0.5);
  EXPECT_GE(schedule.theta_zero, 1u);
  EXPECT_GE(schedule.max_iterations, 1u);
}

TEST(TrimTest, Example23SatisfiesApproximationGuarantee) {
  // Figure 2 graph with η = 2: expected truncated spreads are
  // v1: 1.75, v2: 2, v3: 2, v4: 1. Under the binary mRR estimator the
  // expectations become E[Γ̃(v1)] = 1.75, E[Γ̃(v2)] = 5/3, E[Γ̃(v4)] = 1,
  // so TRIM may legitimately return v1 — Theorem 3.3 only promises the
  // (1 − 1/e) bracket. What must hold: the pick is never v4 (its Γ̃ is far
  // lower) and Δ(pick) ≥ (1 − 1/e)(1 − ε)·Δ(v°) = 0.4425·2 = 0.885.
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.3});
  BitVector active(4);
  std::vector<NodeId> inactive = {0, 1, 2, 3};
  const ResidualView view = FullGraphView(active, inactive, 2);
  const double exact_truncated[4] = {1.75, 2.0, 2.0, 1.0};
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(900 + seed);
    const SelectionResult result = trim.SelectBatch(view, rng);
    ASSERT_EQ(result.seeds.size(), 1u);
    const NodeId chosen = result.seeds[0];
    EXPECT_NE(chosen, 3u) << "TRIM picked the clearly suboptimal v4";
    EXPECT_GE(exact_truncated[chosen], (1.0 - 1.0 / 2.718281828459045) * 0.7 * 2.0);
  }
}

TEST(TrimTest, EstimateWithinTheorem33Bracket) {
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.2});
  BitVector active(4);
  std::vector<NodeId> inactive = {0, 1, 2, 3};
  Rng rng(91);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 2), rng);
  // Chosen node's true truncated spread is 2; the estimate must lie in
  // [(1-1/e)*2 - slack, 2 + slack].
  EXPECT_GE(result.estimated_marginal_gain, kOneMinusInvE * 2.0 - 0.25);
  EXPECT_LE(result.estimated_marginal_gain, 2.0 + 0.25);
  EXPECT_GT(result.num_samples, 0u);
  EXPECT_GE(result.iterations, 1u);
}

TEST(TrimTest, ApproximationHoldsOnRandomGraphs) {
  // On random graphs, compare TRIM's pick against the MC-evaluated best
  // node: Δ(v*) ≥ (1-1/e)(1-ε)·Δ(v°) should hold with generous slack.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng graph_rng(seed);
    auto graph = BuildWeightedGraph(MakeErdosRenyi(60, 300, graph_rng),
                                    WeightScheme::kWeightedCascade);
    ASSERT_TRUE(graph.ok());
    const NodeId eta = 12;
    Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.4});
    BitVector active(60);
    std::vector<NodeId> inactive(60);
    std::iota(inactive.begin(), inactive.end(), 0);
    Rng rng(seed * 7 + 1);
    const SelectionResult result =
        trim.SelectBatch(FullGraphView(active, inactive, eta), rng);

    MonteCarloEstimator mc(*graph, DiffusionModel::kIndependentCascade);
    Rng mc_rng(seed * 13 + 5);
    const double chosen_gain =
        mc.EstimateTruncatedSpread({result.seeds[0]}, eta, 20000, mc_rng);
    double best_gain = 0.0;
    for (NodeId v = 0; v < 60; ++v) {
      best_gain =
          std::max(best_gain, mc.EstimateTruncatedSpread({v}, eta, 4000, mc_rng));
    }
    // (1-1/e)(1-0.4) = 0.379…; allow MC noise slack.
    EXPECT_GE(chosen_gain, 0.379 * best_gain - 0.5) << "seed " << seed;
  }
}

TEST(TrimTest, WorksOnResidualGraph) {
  // Path 0..5 with p=1. With {0,1} active and shortfall 2, the best
  // remaining node is 2 (activates 2,3,...). TRIM must pick node 2.
  auto graph = BuildWeightedGraph(MakePath(6), WeightScheme::kUniform, 1.0);
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.3});
  BitVector active(6);
  active.Set(0);
  active.Set(1);
  std::vector<NodeId> inactive = {2, 3, 4, 5};
  Rng rng(92);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 2), rng);
  EXPECT_EQ(result.seeds[0], 2u);
}

TEST(TrimTest, LtModelSelectsSensibly) {
  // Star with WC weights under LT: center activates every leaf surely
  // (each leaf's only in-edge has p=1). TRIM must pick the center.
  auto graph = BuildWeightedGraph(MakeStar(8), WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kLinearThreshold, TrimOptions{0.3});
  BitVector active(8);
  std::vector<NodeId> inactive(8);
  std::iota(inactive.begin(), inactive.end(), 0);
  Rng rng(93);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 5), rng);
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(TrimTest, DeterministicGivenSeed) {
  auto graph = MakePaperFigure1Graph();
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  BitVector active(6);
  std::vector<NodeId> inactive = {0, 1, 2, 3, 4, 5};
  Rng rng1(94);
  Rng rng2(94);
  const SelectionResult a = trim.SelectBatch(FullGraphView(active, inactive, 4), rng1);
  Trim trim2(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  const SelectionResult b = trim2.SelectBatch(FullGraphView(active, inactive, 4), rng2);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.num_samples, b.num_samples);
}

// --- Batches of b ≥ 2 seeds (Algorithm 3) ------------------------------------

TEST(TrimBatchTest, ReturnsRequestedBatchSize) {
  Rng graph_rng(111);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(50, 250, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 4});
  BitVector active(50);
  std::vector<NodeId> inactive(50);
  std::iota(inactive.begin(), inactive.end(), 0);
  Rng rng(112);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 10), rng);
  EXPECT_EQ(result.seeds.size(), 4u);
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(TrimBatchTest, BatchClampedToResidualNodes) {
  auto graph = BuildWeightedGraph(MakePath(3), WeightScheme::kUniform, 1.0);
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 8});
  BitVector active(3);
  std::vector<NodeId> inactive = {0, 1, 2};
  Rng rng(113);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 3), rng);
  EXPECT_EQ(result.seeds.size(), 3u);
}

TEST(TrimBatchTest, NameReflectsBatchSize) {
  auto graph = BuildWeightedGraph(MakePath(4), WeightScheme::kUniform, 0.5);
  ASSERT_TRUE(graph.ok());
  const Trim batched(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 8});
  const Trim single(*graph, DiffusionModel::kIndependentCascade);
  EXPECT_STREQ(batched.Name(), "ASTI-8");
  EXPECT_STREQ(single.Name(), "ASTI");
}

TEST(TrimBatchTest, BatchTwoOnFigure2CoversBothBranches) {
  // With η = 4 on Figure 2, the best pair must include v1 (the only way to
  // reach 4 nodes is v1's full cascade) — check {v1, x} is selected.
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  BitVector active(4);
  std::vector<NodeId> inactive = {0, 1, 2, 3};
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.3, 2});
  Rng rng(114);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 4), rng);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_TRUE(result.seeds[0] == 0 || result.seeds[1] == 0);
}

TEST(TrimBatchTest, LargerBatchUsesFewerSamplesPerSeed) {
  // Batching's economy: one selection of b seeds costs fewer mRR-sets than
  // b separate b = 1 rounds in the same state (the speedup of §6.2).
  Rng graph_rng(115);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(300, 2, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  BitVector active(300);
  std::vector<NodeId> inactive(300);
  std::iota(inactive.begin(), inactive.end(), 0);

  Trim single_trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 1});
  Trim batched_trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 8});
  Rng rng1(116);
  Rng rng2(117);
  const ResidualView view = FullGraphView(active, inactive, 60);
  const SelectionResult single = single_trim.SelectBatch(view, rng1);
  const SelectionResult batched = batched_trim.SelectBatch(view, rng2);
  EXPECT_LT(batched.num_samples, 8 * single.num_samples);
}

}  // namespace
}  // namespace asti
