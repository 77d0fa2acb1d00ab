// Tests for sampling/: RootSizeSampler, RrCollection, RrSampler,
// MrrSampler. Statistical tests validate the unbiasedness of RR-sets
// (n·Pr[v ∈ R] = E[I(v)]) and Theorem 3.3's bracketing of the mRR
// estimator against Monte-Carlo ground truth.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "coverage/max_coverage.h"
#include "diffusion/monte_carlo.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "sampling/mrr_set.h"
#include "sampling/root_size.h"
#include "sampling/rr_collection.h"
#include "sampling/rr_set.h"

namespace asti {
namespace {

constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;

std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

// --- RootSizeSampler -------------------------------------------------------

TEST(RootSizeTest, IntegerRatioIsDeterministic) {
  RootSizeSampler sampler(100, 10);  // n/η = 10 exactly
  Rng rng(71);
  for (int t = 0; t < 100; ++t) EXPECT_EQ(sampler.Sample(rng), 10u);
  EXPECT_DOUBLE_EQ(sampler.ExpectedK(), 10.0);
}

TEST(RootSizeTest, FractionalRatioAveragesToExpectation) {
  RootSizeSampler sampler(10, 4);  // n/η = 2.5
  Rng rng(72);
  double total = 0.0;
  const int trials = 100000;
  for (int t = 0; t < trials; ++t) {
    const NodeId k = sampler.Sample(rng);
    EXPECT_TRUE(k == 2 || k == 3);
    total += k;
  }
  EXPECT_NEAR(total / trials, 2.5, 0.01);
}

TEST(RootSizeTest, ShortfallOneMeansAllRoots) {
  RootSizeSampler sampler(37, 1);
  Rng rng(73);
  for (int t = 0; t < 10; ++t) EXPECT_EQ(sampler.Sample(rng), 37u);
}

TEST(RootSizeTest, ShortfallEqualsPopulation) {
  RootSizeSampler sampler(12, 12);
  Rng rng(74);
  for (int t = 0; t < 10; ++t) EXPECT_EQ(sampler.Sample(rng), 1u);
}

TEST(RootSizeTest, FloorAndCeilAblationModes) {
  RootSizeSampler floor_sampler(10, 4, RootRounding::kFloor);
  RootSizeSampler ceil_sampler(10, 4, RootRounding::kCeil);
  Rng rng(75);
  for (int t = 0; t < 20; ++t) {
    EXPECT_EQ(floor_sampler.Sample(rng), 2u);
    EXPECT_EQ(ceil_sampler.Sample(rng), 3u);
  }
}

// --- RrCollection ----------------------------------------------------------

TEST(RrCollectionTest, CoverageTracksSets) {
  RrCollection collection(5);
  collection.PushNode(1);
  collection.PushNode(3);
  collection.SealSet();
  collection.PushNode(3);
  collection.SealSet();
  EXPECT_EQ(collection.NumSets(), 2u);
  EXPECT_EQ(collection.TotalEntries(), 3u);
  EXPECT_EQ(collection.Coverage(3), 2u);
  EXPECT_EQ(collection.Coverage(1), 1u);
  EXPECT_EQ(collection.Coverage(0), 0u);
  EXPECT_EQ(ArgMaxCoverage(collection, nullptr), 3u);
}

TEST(RrCollectionTest, SetContentsPreserved) {
  RrCollection collection(10);
  collection.PushNode(7);
  collection.PushNode(2);
  collection.PushNode(9);
  collection.SealSet();
  auto set = collection.Set(0);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0], 7u);
  EXPECT_EQ(set[1], 2u);
  EXPECT_EQ(set[2], 9u);
}

TEST(RrCollectionTest, ClearResetsEverything) {
  RrCollection collection(4);
  collection.PushNode(0);
  collection.SealSet();
  collection.Clear();
  EXPECT_EQ(collection.NumSets(), 0u);
  EXPECT_EQ(collection.TotalEntries(), 0u);
  EXPECT_EQ(collection.Coverage(0), 0u);
}

TEST(RrCollectionTest, ArgMaxTieBreaksLowestId) {
  RrCollection collection(4);
  collection.PushNode(2);
  collection.SealSet();
  collection.PushNode(1);
  collection.SealSet();
  EXPECT_EQ(ArgMaxCoverage(collection, nullptr), 1u);
}

// --- DrawLiveSlots: the IC count draw --------------------------------------

// Smallest z with two-sided normal tail 2·(1 − Φ(z)) ≤ tail.
double TwoSidedNormalQuantile(double tail) {
  double lo = 0.0;
  double hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (std::erfc(mid / std::sqrt(2.0)) > tail ? lo : hi) = mid;
  }
  return hi;
}

// Upper-α quantile of chi-square with `df` degrees of freedom, by the
// Wilson–Hilferty cube-root approximation (conservative at df ≤ 2).
double ChiSquareQuantile(double df, double alpha) {
  const double z = TwoSidedNormalQuantile(2 * alpha);
  const double c = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - c + z * std::sqrt(c), 3);
}

// Chi-square test at level `alpha` of live counts against Binomial(d, p):
// consecutive counts are pooled into bins of expected size at least 5, and
// the last bin takes whatever tail remains.
void ExpectBinomialCounts(const std::vector<uint64_t>& by_count, uint32_t d, double p,
                          double alpha) {
  const double n = static_cast<double>(std::accumulate(by_count.begin(), by_count.end(),
                                                       uint64_t{0}));
  const auto pmf = [&](uint32_t k) {
    return std::exp(std::lgamma(d + 1.0) - std::lgamma(k + 1.0) - std::lgamma(d - k + 1.0) +
                    k * std::log(p) + (d - k) * std::log1p(-p));
  };
  double chi2 = 0.0;
  size_t bins = 0;
  double closed_expected = 0.0;  // expected and observed draws in closed bins
  double closed_observed = 0.0;
  double expected = 0.0;  // the open bin
  double observed = 0.0;
  for (uint32_t k = 0; k <= d; ++k) {
    expected += n * pmf(k);
    observed += static_cast<double>(by_count[k]);
    if (expected < 5.0 || n - closed_expected - expected < 5.0) continue;
    chi2 += (observed - expected) * (observed - expected) / expected;
    ++bins;
    closed_expected += expected;
    closed_observed += observed;
    expected = observed = 0.0;
  }
  const double tail_expected = n - closed_expected;
  const double tail_observed = n - closed_observed;
  chi2 += (tail_observed - tail_expected) * (tail_observed - tail_expected) / tail_expected;
  ++bins;
  ASSERT_GE(bins, 2u);
  EXPECT_LT(chi2, ChiSquareQuantile(static_cast<double>(bins - 1), alpha)) << bins << " bins";
}

// 200,000 draws of d equal coins of probability p by `draw`: the live
// count must follow Binomial(d, p) by a chi-square test, each slot must be
// live with frequency p by a z-test (Bonferroni over the d slots), both at
// α = 1e-4, and no draw may repeat or overrun a slot. Seeds are fixed, so
// the outcome is deterministic.
template <class Draw>
void ExpectEqualCoins(uint32_t d, double p, Draw&& draw) {
  SCOPED_TRACE(testing::Message() << "d=" << d << " p=" << p);
  constexpr size_t kDraws = 200000;
  constexpr double kAlpha = 1e-4;
  std::vector<uint32_t> slots;
  std::vector<uint64_t> by_count(d + 1, 0);
  std::vector<uint64_t> by_slot(d, 0);
  std::vector<char> seen(d, 0);
  for (size_t i = 0; i < kDraws; ++i) {
    draw(slots);
    ASSERT_LE(slots.size(), d);
    ++by_count[slots.size()];
    for (const uint32_t slot : slots) {
      ASSERT_LT(slot, d);
      ASSERT_FALSE(seen[slot]) << "slot " << slot << " twice in one draw";
      seen[slot] = 1;
      ++by_slot[slot];
    }
    for (const uint32_t slot : slots) seen[slot] = 0;
  }
  ExpectBinomialCounts(by_count, d, p, kAlpha);

  // Slots: each is live in about n·p draws.
  const double n = static_cast<double>(kDraws);
  const double z_limit = TwoSidedNormalQuantile(kAlpha / d);
  const double se = std::sqrt(n * p * (1 - p));
  for (uint32_t slot = 0; slot < d; ++slot) {
    EXPECT_LT(std::abs(static_cast<double>(by_slot[slot]) - n * p) / se, z_limit)
        << "slot " << slot << " live in " << by_slot[slot] << " draws";
  }
}

TEST(DrawLiveSlotsTest, MatchesIndependentEqualCoins) {
  const std::vector<std::pair<uint32_t, double>> cases = {
      {2, 0.5}, {5, 0.2}, {16, 1.0 / 16}, {40, 1.0 / 40}, {1000, 1.0 / 1000}, {12, 0.3}};
  Rng rng(0xc0);
  for (const auto& [d, p] : cases) {
    const double q0 = std::exp(d * std::log1p(-p));
    ExpectEqualCoins(d, p, [&, d = d, p = p](std::vector<uint32_t>& slots) {
      DrawLiveSlots(d, p, q0, rng, slots);
    });
  }
}

// Above the count cap the slots are drawn block by block, as many per
// block as the cap allows: 300 = 197 + 103 at p = 0.1, 100 = 3·30 + 10 at
// 0.5, 20 = 9 + 9 + 2 at 0.9 and 5,000 = 2·2,069 + 862 at 0.01.
TEST(DrawLiveSlotsTest, BlocksMatchIndependentEqualCoins) {
  const std::vector<std::pair<uint32_t, double>> cases = {
      {300, 0.1}, {100, 0.5}, {20, 0.9}, {5000, 0.01}};
  Rng rng(0xc2);
  for (const auto& [d, p] : cases) {
    ASSERT_LT(std::exp(d * std::log1p(-p)), kMinNoLiveInProbability);
    ExpectEqualCoins(d, p, [&, d = d, p = p](std::vector<uint32_t>& slots) {
      DrawLiveSlotsInBlocks(d, p, rng, slots);
    });
  }
}

// A draw that rounding leaves past every computed term is drawn again.
// Halving q0 scales every term by one half, so about half the draws fall
// past them all: the count must still follow Binomial(d, p), and none may
// land on d, where P(d) is below 1e-19 in both cases.
TEST(DrawLiveSlotsTest, DrawPastEveryTermIsDrawnAgain) {
  constexpr size_t kDraws = 200000;
  Rng rng(0xc1);
  std::vector<uint32_t> slots;
  for (const auto& [d, p] : {std::pair<uint32_t, double>{16, 1.0 / 16}, {40, 1.0 / 40}}) {
    SCOPED_TRACE(testing::Message() << "d=" << d << " p=" << p);
    const double q0 = 0.5 * std::exp(d * std::log1p(-p));
    std::vector<uint64_t> by_count(d + 1, 0);
    for (size_t draw = 0; draw < kDraws; ++draw) {
      DrawLiveSlots(d, p, q0, rng, slots);
      ++by_count[slots.size()];
    }
    EXPECT_EQ(by_count[d], 0u);
    ExpectBinomialCounts(by_count, d, p, 1e-4);
  }
}

// --- RR-set unbiasedness ---------------------------------------------------

TEST(RrSamplerTest, SingletonCoverageMatchesSpread) {
  // n * Pr[v in R] ≈ E[I(v)] on the Figure 2 graph (E[I(v1)] = 2.75).
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  RrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(graph->NumNodes());
  Rng rng(76);
  const auto candidates = AllNodes(graph->NumNodes());
  const size_t samples = 200000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, collection, rng);
  }
  const double n = 4.0;
  auto estimate = [&](NodeId v) {
    return n * collection.Coverage(v) / static_cast<double>(samples);
  };
  EXPECT_NEAR(estimate(0), 2.75, 0.05);
  EXPECT_NEAR(estimate(1), 2.0, 0.05);
  EXPECT_NEAR(estimate(2), 2.0, 0.05);
  EXPECT_NEAR(estimate(3), 1.0, 0.05);
}

TEST(RrSamplerTest, ResidualSkipsActiveNodes) {
  auto graph = BuildWeightedGraph(MakePath(5), WeightScheme::kUniform, 1.0);
  ASSERT_TRUE(graph.ok());
  RrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(5);
  BitVector active(5);
  active.Set(2);  // severs the path
  std::vector<NodeId> candidates = {3, 4};
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    sampler.Generate(candidates, &active, collection, rng);
  }
  EXPECT_EQ(collection.Coverage(2), 0u);
  EXPECT_EQ(collection.Coverage(0), 0u);
  EXPECT_EQ(collection.Coverage(1), 0u);
  EXPECT_GT(collection.Coverage(3), 0u);
}

TEST(RrSamplerTest, LtSetsArePaths) {
  // In LT, each node keeps <= 1 in-edge, so an RR-set's size cannot exceed
  // the longest simple path + 1, and every set is a chain of predecessors.
  Rng graph_rng(78);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(40, 200, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  RrSampler sampler(*graph, DiffusionModel::kLinearThreshold);
  RrCollection collection(40);
  const auto candidates = AllNodes(40);
  Rng rng(79);
  for (int i = 0; i < 500; ++i) {
    sampler.Generate(candidates, nullptr, collection, rng);
  }
  for (size_t s = 0; s < collection.NumSets(); ++s) {
    EXPECT_LE(collection.Set(s).size(), 40u);
  }
}

TEST(RrSamplerTest, LtSingletonCoverageMatchesMonteCarlo) {
  Rng graph_rng(80);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(30, 120, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  const NodeId probe = 3;
  MonteCarloEstimator mc(*graph, DiffusionModel::kLinearThreshold);
  Rng mc_rng(81);
  const double truth = mc.EstimateSpread({probe}, 60000, mc_rng);

  RrSampler sampler(*graph, DiffusionModel::kLinearThreshold);
  RrCollection collection(30);
  const auto candidates = AllNodes(30);
  Rng rng(82);
  const size_t samples = 120000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, collection, rng);
  }
  const double estimate =
      30.0 * collection.Coverage(probe) / static_cast<double>(samples);
  EXPECT_NEAR(estimate, truth, 0.12);
}

// --- mRR-sets: root counts, dedup, Theorem 3.3 -----------------------------

TEST(MrrSamplerTest, SetsContainDistinctNodes) {
  Rng graph_rng(83);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(50, 300, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(50);
  const auto candidates = AllNodes(50);
  Rng rng(84);
  for (int i = 0; i < 200; ++i) {
    sampler.Generate(candidates, nullptr, 5, collection, rng);
  }
  for (size_t s = 0; s < collection.NumSets(); ++s) {
    auto set = collection.Set(s);
    std::set<NodeId> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), set.size());
    EXPECT_GE(set.size(), 5u);  // contains at least the roots
  }
}

TEST(MrrSamplerTest, LargeRootCountUsesFisherYatesPath) {
  auto graph = BuildWeightedGraph(MakePath(20), WeightScheme::kUniform, 0.5);
  ASSERT_TRUE(graph.ok());
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(20);
  const auto candidates = AllNodes(20);
  Rng rng(85);
  // num_roots = 20 (> population/2) exercises the Fisher-Yates branch.
  sampler.Generate(candidates, nullptr, 20, collection, rng);
  auto set = collection.Set(0);
  std::set<NodeId> unique(set.begin(), set.end());
  EXPECT_EQ(unique.size(), 20u);  // all nodes are roots
}

TEST(MrrSamplerTest, RootsUniformOverCandidates) {
  // With no edges, an mRR-set is exactly its roots; each node should root
  // k/n of the time.
  GraphBuilder builder(10);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(10);
  const auto candidates = AllNodes(10);
  Rng rng(86);
  const size_t samples = 30000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, 3, collection, rng);
  }
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_NEAR(static_cast<double>(collection.Coverage(v)) / samples, 0.3, 0.02);
  }
}

TEST(MrrSamplerTest, Theorem33BracketsOnFigure2) {
  // Empirical check of (1-1/e)·E[Γ(v)] ≤ E[Γ̃(v)] ≤ E[Γ(v)] with η = 2 on
  // the Figure 2 graph, where E[Γ] is exact: Γ(v1)=1.75, Γ(v2)=2.
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  const NodeId n = 4;
  const NodeId eta = 2;
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RootSizeSampler root_size(n, eta);
  RrCollection collection(n);
  const auto candidates = AllNodes(n);
  Rng rng(87);
  const size_t samples = 300000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, root_size.Sample(rng), collection, rng);
  }
  auto gamma_tilde = [&](NodeId v) {
    return static_cast<double>(eta) * collection.Coverage(v) /
           static_cast<double>(samples);
  };
  const double exact_gamma_v1 = 1.75;
  const double exact_gamma_v2 = 2.0;
  EXPECT_GE(gamma_tilde(0), kOneMinusInvE * exact_gamma_v1 - 0.02);
  EXPECT_LE(gamma_tilde(0), exact_gamma_v1 + 0.02);
  EXPECT_GE(gamma_tilde(1), kOneMinusInvE * exact_gamma_v2 - 0.02);
  EXPECT_LE(gamma_tilde(1), exact_gamma_v2 + 0.02);
}

TEST(MrrSamplerTest, Theorem33BracketsOnRandomGraph) {
  Rng graph_rng(88);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(40, 160, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  const NodeId n = 40;
  const NodeId eta = 7;
  // Ground truth by Monte Carlo.
  MonteCarloEstimator mc(*graph, DiffusionModel::kIndependentCascade);
  Rng mc_rng(89);
  const NodeId probe = 11;
  const double gamma = mc.EstimateTruncatedSpread({probe}, eta, 80000, mc_rng);

  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RootSizeSampler root_size(n, eta);
  RrCollection collection(n);
  const auto candidates = AllNodes(n);
  Rng rng(90);
  const size_t samples = 150000;
  for (size_t i = 0; i < samples; ++i) {
    sampler.Generate(candidates, nullptr, root_size.Sample(rng), collection, rng);
  }
  const double gamma_tilde = static_cast<double>(eta) * collection.Coverage(probe) /
                             static_cast<double>(samples);
  EXPECT_GE(gamma_tilde, kOneMinusInvE * gamma - 0.1);
  EXPECT_LE(gamma_tilde, gamma + 0.1);
}

TEST(MrrSamplerTest, ResidualSetsAvoidActiveNodes) {
  Rng graph_rng(91);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(30, 200, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  BitVector active(30);
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < 30; ++v) {
    if (v % 3 == 0) {
      active.Set(v);
    } else {
      candidates.push_back(v);
    }
  }
  MrrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(30);
  Rng rng(92);
  for (int i = 0; i < 300; ++i) {
    sampler.Generate(candidates, &active, 4, collection, rng);
  }
  for (NodeId v = 0; v < 30; v += 3) EXPECT_EQ(collection.Coverage(v), 0u);
}

}  // namespace
}  // namespace asti
