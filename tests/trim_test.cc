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
#include "graph/graph_builder.h"
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

// One round of Algorithms 2-3 on an owned ladder, as Trim::SelectBatch runs
// it on a residual round, but without the one-hop certificate tried first:
// for the small inputs whose round the certificate answers.
SelectionResult LadderRound(const DirectedGraph& graph, DiffusionModel model,
                            const BitVector& active, const std::vector<NodeId>& inactive,
                            NodeId eta, NodeId batch, double epsilon, Rng& rng) {
  ParallelRrSampler sampler(graph, model, nullptr);
  RrCollection owned(graph.NumNodes());
  const auto ni = static_cast<NodeId>(inactive.size());
  const RootSizeSampler root_size(ni, eta, RootRounding::kRandomized);
  return CertifyOnLadder(OwnedLadder(sampler, owned, inactive, &active, &root_size, rng),
                         ComputeTrimSchedule(ni, eta, batch, epsilon), inactive,
                         static_cast<double>(eta), nullptr, nullptr, nullptr);
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
  // Trim::SelectBatch answers this round with the one-hop certificate
  // (min(b, η) = 1 ≥ 0.885), so the ladder runs directly.
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  BitVector active(4);
  std::vector<NodeId> inactive = {0, 1, 2, 3};
  const double exact_truncated[4] = {1.75, 2.0, 2.0, 1.0};
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(900 + seed);
    const SelectionResult result = LadderRound(
        *graph, DiffusionModel::kIndependentCascade, active, inactive, 2, 1, 0.3, rng);
    EXPECT_NE(result.answer, RoundAnswer::kOneHop);
    EXPECT_GT(result.num_samples, 0u);
    ASSERT_EQ(result.seeds.size(), 1u);
    const NodeId chosen = result.seeds[0];
    EXPECT_NE(chosen, 3u) << "TRIM picked the clearly suboptimal v4";
    EXPECT_GE(exact_truncated[chosen], (1.0 - 1.0 / 2.718281828459045) * 0.7 * 2.0);
  }
}

// The sampling ladder's estimate, so the round runs CertifyOnLadder on an
// owned ladder directly: Trim::SelectBatch answers η = 2 on this graph with
// the one-hop certificate, which draws no samples.
TEST(TrimTest, EstimateWithinTheorem33Bracket) {
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  BitVector active(4);
  std::vector<NodeId> inactive = {0, 1, 2, 3};
  ParallelRrSampler sampler(*graph, DiffusionModel::kIndependentCascade, nullptr);
  RrCollection owned(graph->NumNodes());
  const RootSizeSampler root_size(4, 2, RootRounding::kRandomized);
  Rng rng(91);
  const SelectionResult result = CertifyOnLadder(
      OwnedLadder(sampler, owned, inactive, &active, &root_size, rng),
      ComputeTrimSchedule(4, 2, 1, 0.2), inactive, 2.0, nullptr, nullptr, nullptr);
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
    EXPECT_NE(result.answer, RoundAnswer::kOneHop) << "seed " << seed;

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
  // Path 0..11 with p=1. With {0,1} active and shortfall 10, only node 2
  // reaches every remaining node (2,3,...,11). TRIM must pick node 2. The
  // round runs the ladder: 1 + max μ = 2 and min(b, η) = 1 fall short of
  // the one-hop target 0.4425·10.
  auto graph = BuildWeightedGraph(MakePath(12), WeightScheme::kUniform, 1.0);
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.3});
  BitVector active(12);
  active.Set(0);
  active.Set(1);
  std::vector<NodeId> inactive = {2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  Rng rng(92);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 10), rng);
  EXPECT_NE(result.answer, RoundAnswer::kOneHop);
  EXPECT_EQ(result.seeds[0], 2u);
}

TEST(TrimTest, LtModelSelectsSensibly) {
  // Star with WC weights under LT: center activates every leaf surely
  // (each leaf's only in-edge has p=1). TRIM must pick the center, through
  // the one-hop certificate (1 + X = 8 surely) and through the ladder.
  auto graph = BuildWeightedGraph(MakeStar(8), WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kLinearThreshold, TrimOptions{0.3});
  BitVector active(8);
  std::vector<NodeId> inactive(8);
  std::iota(inactive.begin(), inactive.end(), 0);
  Rng rng(93);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 5), rng);
  EXPECT_EQ(result.answer, RoundAnswer::kOneHop);
  EXPECT_EQ(result.seeds[0], 0u);
  const SelectionResult ladder = LadderRound(*graph, DiffusionModel::kLinearThreshold,
                                             active, inactive, 5, 1, 0.3, rng);
  EXPECT_NE(ladder.answer, RoundAnswer::kOneHop);
  EXPECT_EQ(ladder.seeds[0], 0u);
}

TEST(TrimTest, DeterministicGivenSeed) {
  // At ε = 0.1 and η = 4 the one-hop target 0.569·4 = 2.28 exceeds
  // 1 + max μ = 2.2 (v1), so the round samples.
  auto graph = MakePaperFigure1Graph();
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.1});
  BitVector active(6);
  std::vector<NodeId> inactive = {0, 1, 2, 3, 4, 5};
  Rng rng1(94);
  Rng rng2(94);
  const SelectionResult a = trim.SelectBatch(FullGraphView(active, inactive, 4), rng1);
  Trim trim2(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.1});
  const SelectionResult b = trim2.SelectBatch(FullGraphView(active, inactive, 4), rng2);
  EXPECT_NE(a.answer, RoundAnswer::kOneHop);
  EXPECT_GT(a.num_samples, 0u);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.iterations, b.iterations);
}

// --- One-hop certificate ------------------------------------------------------

// E[min(η, 1 + X)] by enumerating all 2^d outcomes of the d trials.
double BruteForceTruncatedSpread(const std::vector<double>& probs, NodeId eta) {
  double expected = 0.0;
  for (uint32_t outcome = 0; outcome < (1u << probs.size()); ++outcome) {
    double probability = 1.0;
    NodeId live = 0;
    for (size_t j = 0; j < probs.size(); ++j) {
      const bool on = (outcome >> j) & 1u;
      probability *= on ? probs[j] : 1.0 - probs[j];
      live += on ? 1 : 0;
    }
    expected += probability * std::min<NodeId>(eta, 1 + live);
  }
  return expected;
}

// The DP equals enumeration over up to 12 edges, for shortfalls that cut
// the count anywhere from nothing to everything, edge probabilities 1
// included; an early stop agrees with the whole on whether a target is
// reached, and never reads more than the whole.
TEST(OneHopTest, DpMatchesBruteForceEnumeration) {
  Rng rng(4242);
  for (size_t d = 0; d <= 12; ++d) {
    for (NodeId eta : {1u, 2u, 3u, 5u, 8u, 13u, 20u}) {
      std::vector<double> probs(d);
      for (double& p : probs) p = rng.NextDouble() < 0.1 ? 1.0 : rng.NextDouble();
      const double exact = BruteForceTruncatedSpread(probs, eta);
      const double dp = OneHopTruncatedSpread(probs, eta);
      EXPECT_NEAR(dp, exact, 1e-12) << "d=" << d << " eta=" << eta;
      for (double target : {0.5 * exact, exact - 1e-9, exact + 1e-9, 2.0 * exact}) {
        const double early = OneHopTruncatedSpread(probs, eta, target);
        EXPECT_EQ(early >= target, exact >= target)
            << "d=" << d << " eta=" << eta << " target=" << target;
        EXPECT_LE(early, exact + 1e-12);
      }
    }
  }
}

std::vector<NodeId> InactiveOf(const BitVector& active) {
  std::vector<NodeId> inactive;
  for (NodeId v = 0; v < active.size(); ++v) {
    if (!active.Get(v)) inactive.push_back(v);
  }
  return inactive;
}

// Hub 0 reaches leaves 1..10 with p = 1; 11..19 are isolated.
DirectedGraph HubAndIsolatedNodes() {
  GraphBuilder builder(20);
  for (NodeId leaf = 1; leaf <= 10; ++leaf) EXPECT_TRUE(builder.AddEdge(0, leaf, 1.0).ok());
  return std::move(builder.Build()).value();
}

TEST(OneHopTest, CertifiesOnTheDpBoundWithNoSamples) {
  const DirectedGraph graph = HubAndIsolatedNodes();
  const BitVector active(20);
  const std::vector<NodeId> inactive = InactiveOf(active);
  // η = 12: target (1 − 1/e)(0.5)·12 = 3.79. The DP stops at the first
  // prefix of the hub's sure edges that certifies: three give 4.
  const std::optional<SelectionResult> one =
      CertifyOneHop(graph, FullGraphView(active, inactive, 12), 1, 0.5);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->seeds, std::vector<NodeId>{0});
  EXPECT_DOUBLE_EQ(one->estimated_marginal_gain, 4.0);
  EXPECT_EQ(one->num_samples, 0u);
  EXPECT_EQ(one->iterations, 0u);
  EXPECT_EQ(one->answer, RoundAnswer::kOneHop);
  // At b = 3 the batch is the hub and the next two inactive nodes by μ.
  const std::optional<SelectionResult> three =
      CertifyOneHop(graph, FullGraphView(active, inactive, 12), 3, 0.5);
  ASSERT_TRUE(three.has_value());
  EXPECT_EQ(three->seeds, (std::vector<NodeId>{0, 1, 2}));
}

// The hub's out-edges all end at active leaves, so it is credited with
// none of them: one-hop cannot certify a shortfall of 6 (target 1.9) and
// the round goes to the ladder.
TEST(OneHopTest, EdgesIntoActiveNodesCountForNothing) {
  const DirectedGraph graph = HubAndIsolatedNodes();
  BitVector active(20);
  for (NodeId leaf = 1; leaf <= 10; ++leaf) active.Set(leaf);
  const std::vector<NodeId> inactive = InactiveOf(active);
  EXPECT_FALSE(CertifyOneHop(graph, FullGraphView(active, inactive, 6), 1, 0.5).has_value());
  // With one leaf inactive again the hub's bound is 2 ≥ 1.9.
  active.Clear(10);
  const std::vector<NodeId> more = InactiveOf(active);
  const std::optional<SelectionResult> certified =
      CertifyOneHop(graph, FullGraphView(active, more, 6), 1, 0.5);
  ASSERT_TRUE(certified.has_value());
  EXPECT_EQ(certified->seeds, std::vector<NodeId>{0});
  EXPECT_DOUBLE_EQ(certified->estimated_marginal_gain, 2.0);
}

// min(b, η_i) alone certifies a small shortfall: the batch is the first
// inactive nodes by μ, walking past active ones. Above it, with every
// 1 + μ short of the target, the certificate declines.
TEST(OneHopTest, SmallShortfallCertifiesAndLargeOneDeclines) {
  const DirectedGraph graph = HubAndIsolatedNodes();
  BitVector active(20);
  active.Set(0);
  active.Set(2);
  const std::vector<NodeId> inactive = InactiveOf(active);
  // b = 4, η_i = 4: min(b, η_i) = 4 ≥ 0.68·0.63·0.5·4 = 0.86.
  const std::optional<SelectionResult> batch =
      CertifyOneHop(graph, FullGraphView(active, inactive, 4), 4, 0.5);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->seeds, (std::vector<NodeId>{1, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(batch->estimated_marginal_gain, 4.0);
  // η_i = 15: 1 + max μ = 11 clears the target 4.7, but the hub is active
  // and every other node's 1 + μ = 1 falls short.
  EXPECT_FALSE(CertifyOneHop(graph, FullGraphView(active, inactive, 15), 1, 0.5).has_value());
  // A path with p = 0.5: 1 + max μ = 1.5 and min(b, η_i) = 1 fall short of
  // the target 1.9 at η_i = 6.
  const DirectedGraph path =
      BuildWeightedGraph(MakePath(10), WeightScheme::kUniform, 0.5).value();
  const BitVector none(10);
  EXPECT_FALSE(CertifyOneHop(path, FullGraphView(none, InactiveOf(none), 6), 1, 0.5).has_value());
}

// Trim answers a round the certificate holds without sampling, and every
// other round on the ladder, saying which.
TEST(OneHopTest, TrimReportsHowEachRoundWasAnswered) {
  const DirectedGraph graph = HubAndIsolatedNodes();
  Trim trim(graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  const BitVector active(20);
  const std::vector<NodeId> inactive = InactiveOf(active);
  Rng rng(95);
  const SelectionResult certified = trim.SelectBatch(FullGraphView(active, inactive, 12), rng);
  EXPECT_EQ(certified.answer, RoundAnswer::kOneHop);
  EXPECT_EQ(certified.num_samples, 0u);
  BitVector leaves(20);
  for (NodeId leaf = 1; leaf <= 10; ++leaf) leaves.Set(leaf);
  const std::vector<NodeId> rest = InactiveOf(leaves);
  const SelectionResult sampled = trim.SelectBatch(FullGraphView(leaves, rest, 6), rng);
  EXPECT_TRUE(sampled.answer == RoundAnswer::kCertified ||
              sampled.answer == RoundAnswer::kFellBack);
  EXPECT_GT(sampled.num_samples, 0u);
  EXPECT_GE(sampled.iterations, 1u);
}

// --- Batches of b ≥ 2 seeds (Algorithm 3) ------------------------------------

TEST(TrimBatchTest, ReturnsRequestedBatchSize) {
  // η = 25 puts the one-hop target 0.216·25 = 5.4 above min(b, η) = 4,
  // and no node's one-hop bound reaches it, so CELF picks the batch.
  Rng graph_rng(111);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(50, 250, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 4});
  BitVector active(50);
  std::vector<NodeId> inactive(50);
  std::iota(inactive.begin(), inactive.end(), 0);
  Rng rng(112);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 25), rng);
  EXPECT_NE(result.answer, RoundAnswer::kOneHop);
  EXPECT_EQ(result.seeds.size(), 4u);
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), 4u);
}

// b = 8 on 3 inactive nodes: the batch is clamped to 3. Trim::SelectBatch
// can only answer such a round with the one-hop certificate, because a
// clamped batch has min(b, η_i) = η_i, which always reaches the target, so
// the ladder's own clamped pick (CELF with b = n_i) runs directly.
TEST(TrimBatchTest, BatchClampedToResidualNodes) {
  auto graph = BuildWeightedGraph(MakePath(3), WeightScheme::kUniform, 1.0);
  ASSERT_TRUE(graph.ok());
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, 8});
  BitVector active(3);
  std::vector<NodeId> inactive = {0, 1, 2};
  Rng rng(113);
  const SelectionResult result = trim.SelectBatch(FullGraphView(active, inactive, 3), rng);
  EXPECT_EQ(result.answer, RoundAnswer::kOneHop);
  EXPECT_EQ(result.seeds.size(), 3u);
  const SelectionResult ladder = LadderRound(*graph, DiffusionModel::kIndependentCascade,
                                             active, inactive, 3, 3, 0.5, rng);
  EXPECT_NE(ladder.answer, RoundAnswer::kOneHop);
  EXPECT_EQ(std::set<NodeId>(ladder.seeds.begin(), ladder.seeds.end()),
            (std::set<NodeId>{0, 1, 2}));
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
  // reach 4 nodes is v1's full cascade) — check {v1, x} is selected. The
  // one-hop certificate answers this round (min(b, η) = 2 ≥ 1.33), so CELF
  // runs on the ladder directly.
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  BitVector active(4);
  std::vector<NodeId> inactive = {0, 1, 2, 3};
  Rng rng(114);
  const SelectionResult result = LadderRound(*graph, DiffusionModel::kIndependentCascade,
                                             active, inactive, 4, 2, 0.3, rng);
  EXPECT_NE(result.answer, RoundAnswer::kOneHop);
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
  EXPECT_NE(batched.answer, RoundAnswer::kOneHop);
  EXPECT_GT(batched.num_samples, 0u);
  EXPECT_LT(batched.num_samples, 8 * single.num_samples);
}

}  // namespace
}  // namespace asti
