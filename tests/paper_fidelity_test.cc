// Paper-fidelity suite: numeric claims lifted directly from the paper's
// text, verified against the implementation. Each test cites its section.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>

#include "diffusion/monte_carlo.h"
#include "diffusion/realization.h"
#include "graph/generators.h"
#include "sampling/root_size.h"
#include "stats/truncation.h"
#include "util/bit_vector.h"
#include "world_oracle.h"

namespace asti {
namespace {

// §2.1: "there are 2^m distinct possible realizations". Figure 2's graph
// has two random edges (the other two are deterministic), so exactly four
// equiprobable realizations φ1..φ4 — enumerate them empirically.
TEST(PaperFidelityTest, Figure2HasFourEquiprobableRealizations) {
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  Rng rng(401);
  std::map<std::pair<bool, bool>, int> counts;
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    const Realization realization = Realization::SampleIc(*graph, rng);
    // v1->v2 and v1->v3 have p = .5; v2->v4 and v3->v4 have p = 1.
    EXPECT_TRUE(oracle::Live(realization, 1, 3));
    EXPECT_TRUE(oracle::Live(realization, 2, 3));
    ++counts[{oracle::Live(realization, 0, 1), oracle::Live(realization, 0, 2)}];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [key, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 0.25, 0.01);
  }
}

// Example 2.3's full table: E[I(v1)] = 2.75 dominates, yet with η = 2 the
// truncated ordering flips to v2 = v3 = 2 > v1 = 1.75 > v4 = 1.
TEST(PaperFidelityTest, Example23CompleteOrdering) {
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  MonteCarloEstimator mc(*graph, DiffusionModel::kIndependentCascade);
  Rng rng(402);
  const size_t trials = 60000;

  std::vector<double> spread(4);
  std::vector<double> truncated(4);
  for (NodeId v = 0; v < 4; ++v) {
    spread[v] = mc.EstimateSpread({v}, trials, rng);
    truncated[v] = mc.EstimateTruncatedSpread({v}, 2, trials, rng);
  }
  // Vanilla ordering: v1 strictly first.
  EXPECT_GT(spread[0], spread[1]);
  EXPECT_GT(spread[0], spread[2]);
  EXPECT_GT(spread[0], spread[3]);
  // Truncated ordering: v2/v3 strictly above v1, v1 above v4.
  EXPECT_GT(truncated[1], truncated[0] + 0.1);
  EXPECT_GT(truncated[2], truncated[0] + 0.1);
  EXPECT_GT(truncated[0], truncated[3] + 0.5);
  // The paper's expected-seed-count arithmetic: seeding v1 first costs
  // 2·0.25 + 1·0.75 = 1.25 expected seeds; v2/v3 always finish with 1.
  const double p_v1_fails = 0.25;  // φ4: both outgoing edges blocked
  EXPECT_NEAR(2.0 * p_v1_fails + 1.0 * (1 - p_v1_fails), 1.25, 1e-12);
}

// §3.2: the vanilla RR estimator applied to truncated spread carries the
// η/n discount — verify the biased value η/n · E[I(S)] is far below the
// true E[Γ(S)] on Figure 2 (the paper's argument why RR-sets fail).
TEST(PaperFidelityTest, VanillaRrEstimateUnderestimatesTruncatedSpread) {
  auto graph = MakePaperFigure2Graph();
  ASSERT_TRUE(graph.ok());
  const double eta = 2.0;
  const double n = 4.0;
  const double expected_spread_v2 = 2.0;     // E[I(v2)]
  const double expected_truncated_v2 = 2.0;  // E[Γ(v2)]
  const double biased = eta / n * expected_spread_v2;  // η·Pr[R ∩ S ≠ ∅]
  EXPECT_LT(biased, (1.0 - 1.0 / 2.718281828459045) * expected_truncated_v2);
}

// Theorem 3.1's strong adaptive monotonicity (Eq. 22): the expected
// marginal truncated spread of a fixed node can only shrink as more of the
// graph is activated and the shortfall drops.
TEST(PaperFidelityTest, MarginalTruncatedSpreadShrinksAcrossRounds) {
  Rng graph_rng(403);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(60, 360, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  MonteCarloEstimator mc(*graph, DiffusionModel::kIndependentCascade);
  Rng rng(404);
  const NodeId probe = 5;

  BitVector early(60);          // round j: nothing active
  BitVector late(60);           // round i > j: a superset is active
  std::vector<NodeId> activated = {10, 11, 12, 13, 14, 15, 16, 17};
  for (NodeId v : activated) late.Set(v);
  const NodeId eta_early = 20;
  const NodeId eta_late = 12;  // η_i shrinks with activations

  const double delta_early =
      mc.EstimateMarginalTruncatedSpread({probe}, early, eta_early, 30000, rng);
  const double delta_late =
      mc.EstimateMarginalTruncatedSpread({probe}, late, eta_late, 30000, rng);
  EXPECT_GE(delta_early + 0.05, delta_late);
}

// §3.3's k = n/η expectation: with the randomized rounding, the average
// root count matches n_i/η_i to three decimals over many draws.
TEST(PaperFidelityTest, RootCountExpectationExact) {
  for (const auto& [ni, eta_i] : std::vector<std::pair<NodeId, NodeId>>{
           {100, 7}, {1000, 13}, {12345, 678}}) {
    RootSizeSampler sampler(ni, eta_i);
    EXPECT_NEAR(sampler.ExpectedK(),
                static_cast<double>(ni) / static_cast<double>(eta_i), 1e-12);
  }
}

// §3.3's Remark bounds, at their extreme points: floor-only rounding
// approaches 1 − 1/√e and ceil-only approaches 2 somewhere in the grid.
TEST(PaperFidelityTest, RemarkBoundsAreTight) {
  double floor_min = 2.0;
  double ceil_max = 0.0;
  for (uint64_t n : {100u, 500u, 2000u}) {
    // The floor rule is loosest where frac(n/η) → 1 (k stuck one below its
    // target), so probe η just above n/(j+1) for small j, plus a coarse grid.
    std::vector<uint64_t> etas;
    for (uint64_t j = 1; j <= 6; ++j) etas.push_back(n / (j + 1) + 1);
    for (uint64_t eta = 2; eta <= n / 2; eta += std::max<uint64_t>(1, eta / 3)) {
      etas.push_back(eta);
    }
    for (uint64_t eta : etas) {
      if (eta < 1 || eta > n) continue;
      for (uint64_t x = 1; x <= n; x = std::max(x + 1, x * 5 / 4)) {
        floor_min =
            std::min(floor_min, EstimatorBiasRatio(x, n, eta, RootRounding::kFloor));
        ceil_max =
            std::max(ceil_max, EstimatorBiasRatio(x, n, eta, RootRounding::kCeil));
      }
      floor_min =
          std::min(floor_min, EstimatorBiasRatio(eta, n, eta, RootRounding::kFloor));
    }
  }
  const double one_minus_inv_sqrt_e = 1.0 - 1.0 / std::sqrt(2.718281828459045);
  constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;
  EXPECT_GE(floor_min, one_minus_inv_sqrt_e - 1e-9);  // never below the Remark's floor
  EXPECT_LT(floor_min, kOneMinusInvE);  // genuinely violates Theorem 3.3's bracket
  EXPECT_LE(ceil_max, 2.0 + 1e-9);      // never above the Remark's cap
  EXPECT_GT(ceil_max, 1.5);             // and genuinely approaches it
}

}  // namespace
}  // namespace asti
