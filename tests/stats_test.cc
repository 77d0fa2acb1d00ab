// Tests for stats/concentration.h and stats/truncation.h: Lemma A.2 bound
// behaviour, empirical coverage, Theorem 3.3's closed-form ratios, and the
// needed-sets (doubling ladder) queries the sampler cache serves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/trim.h"
#include "stats/concentration.h"
#include "stats/truncation.h"
#include "util/rng.h"

namespace asti {
namespace {

constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;

TEST(ConcentrationTest, LowerBelowUpper) {
  for (double coverage : {0.0, 1.0, 5.0, 100.0, 10000.0}) {
    for (double a : {0.5, 2.0, 10.0}) {
      EXPECT_LE(CoverageLowerBound(coverage, a), CoverageUpperBound(coverage, a));
    }
  }
}

TEST(ConcentrationTest, LowerBoundBelowObservation) {
  for (double coverage : {1.0, 10.0, 1000.0}) {
    EXPECT_LE(CoverageLowerBound(coverage, 3.0), coverage);
  }
}

TEST(ConcentrationTest, UpperBoundAboveObservation) {
  for (double coverage : {0.0, 1.0, 10.0, 1000.0}) {
    EXPECT_GE(CoverageUpperBound(coverage, 3.0), coverage);
  }
}

TEST(ConcentrationTest, BoundsTightenWithCoverage) {
  // Relative width (upper-lower)/coverage shrinks as coverage grows.
  const double a = 5.0;
  double previous_relative_width = 1e18;
  for (double coverage : {10.0, 100.0, 1000.0, 10000.0}) {
    const double width =
        (CoverageUpperBound(coverage, a) - CoverageLowerBound(coverage, a)) / coverage;
    EXPECT_LT(width, previous_relative_width);
    previous_relative_width = width;
  }
}

TEST(ConcentrationTest, LowerBoundClampedAtZero) {
  EXPECT_NEAR(CoverageLowerBound(0.0, 10.0), 0.0, 1e-12);
  EXPECT_GE(CoverageLowerBound(0.5, 50.0), 0.0);
}

TEST(ConcentrationTest, EmpiricalCoverageOfLemmaA2) {
  // Binomial(T, p) observations: the bounds should each fail with
  // probability well below e^{-a}.
  Rng rng(61);
  const size_t trials = 2000;
  const size_t samples = 400;
  const double p = 0.3;
  const double a = 3.0;  // e^-3 ≈ 0.0498 failure budget per side
  const double expectation = p * samples;
  size_t lower_failures = 0;
  size_t upper_failures = 0;
  for (size_t t = 0; t < trials; ++t) {
    double observed = 0.0;
    for (size_t s = 0; s < samples; ++s) observed += rng.NextBernoulli(p) ? 1.0 : 0.0;
    if (CoverageLowerBound(observed, a) > expectation) ++lower_failures;
    if (CoverageUpperBound(observed, a) < expectation) ++upper_failures;
  }
  EXPECT_LT(static_cast<double>(lower_failures) / trials, 0.05);
  EXPECT_LT(static_cast<double>(upper_failures) / trials, 0.05);
}

TEST(ConcentrationTest, ChernoffTailsDecreaseInLambda) {
  double previous = 1.1;
  for (double lambda : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    const double tail = ChernoffUpperTail(0.5, lambda, 100);
    EXPECT_LE(tail, previous);
    previous = tail;
  }
}

TEST(ConcentrationTest, ChernoffLowerTailMatchesFormula) {
  const double tail = ChernoffLowerTail(0.4, 0.1, 250);
  EXPECT_NEAR(tail, std::exp(-0.01 * 250 / 0.8), 1e-12);
}

TEST(ConcentrationTest, LogBinomialMatchesSmallCases) {
  // k = 1 is exact: the b = 1 certify schedule must be Algorithm 2's ln n_i.
  EXPECT_EQ(LogBinomial(300, 1), std::log(300.0));
  EXPECT_EQ(LogBinomial(56000, 1), std::log(56000.0));
  EXPECT_NEAR(LogBinomial(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogBinomial(10, 0), 0.0, 1e-9);
  EXPECT_NEAR(LogBinomial(10, 10), 0.0, 1e-9);
  EXPECT_NEAR(LogBinomial(52, 5), std::log(2598960.0), 1e-6);
}

// --- Needed-sets queries (doubling schedules) ------------------------------

TEST(DoublingLadderTest, SetsAreThetaZeroTimesPowersOfTwo) {
  EXPECT_EQ(DoublingLadderSets(5, 0), 0u);
  EXPECT_EQ(DoublingLadderSets(5, 1), 5u);
  EXPECT_EQ(DoublingLadderSets(5, 2), 10u);
  EXPECT_EQ(DoublingLadderSets(5, 4), 40u);
  EXPECT_EQ(DoublingLadderSets(1, 11), 1024u);
}

TEST(DoublingLadderTest, SetsSaturateInsteadOfWrapping) {
  EXPECT_EQ(DoublingLadderSets(SIZE_MAX / 2 + 2, 2), SIZE_MAX);
  EXPECT_EQ(DoublingLadderSets(3, 4000), SIZE_MAX);
}

// Differential pin against the legacy doubling loops: before the sampler
// cache, TRIM/TRIM-B/AdaptIM grew an owned collection in place
// (|R| -> 2|R|) with T = ceil(log2(theta_max/theta_zero)) + 1. The ladder
// query must reproduce EXACTLY the collection sizes and stopping point
// that loop visited, or cached runs would certify on different prefixes
// than fresh ones.
TEST(DoublingLadderTest, MatchesLegacyDoublingLoopStoppingPoint) {
  for (size_t theta_zero : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                            size_t{64}, size_t{1000}}) {
    for (double factor : {0.5, 1.0, 1.0001, 1.5, 2.0, 3.9, 4.0, 17.3, 1e6}) {
      const double theta_max = static_cast<double>(theta_zero) * factor;
      // The legacy loop: start at theta_zero, double until >= theta_max.
      size_t legacy_sets = theta_zero;
      size_t legacy_iterations = 1;
      while (static_cast<double>(legacy_sets) < theta_max) {
        legacy_sets *= 2;
        ++legacy_iterations;
      }
      const size_t iterations = DoublingLadderIterations(theta_zero, theta_max);
      EXPECT_EQ(iterations, legacy_iterations)
          << "theta_zero=" << theta_zero << " theta_max=" << theta_max;
      // Every intermediate rung matches the in-place doubled size.
      size_t sets = theta_zero;
      for (size_t t = 1; t <= iterations; ++t) {
        EXPECT_EQ(DoublingLadderSets(theta_zero, t), sets) << "t=" << t;
        sets *= 2;
      }
    }
  }
}

// Needed-sets behaviour of the one certify schedule across the (eta,
// epsilon) grid at b = 1 and b = min(8, eta): the final rung covers
// theta_max, the previous one does not (the ladder never over- or
// under-shoots the certification budget), and tightening epsilon never
// shrinks the sampling budget.
TEST(DoublingLadderTest, ScheduleLaddersCoverThetaMaxMinimally) {
  const NodeId n = 5000;
  for (NodeId eta : {NodeId{1}, NodeId{10}, NodeId{250}, NodeId{2500}}) {
    for (NodeId batch : {NodeId{1}, std::min<NodeId>(8, eta)}) {
      double previous_theta_max = 0.0;
      for (double epsilon : {0.5, 0.3, 0.1}) {  // tightening order
        const TrimSchedule schedule = ComputeTrimSchedule(n, eta, batch, epsilon);
        ASSERT_GE(schedule.max_iterations, 1u);
        EXPECT_GE(static_cast<double>(
                      DoublingLadderSets(schedule.theta_zero, schedule.max_iterations)),
                  schedule.theta_max)
            << "eta=" << eta << " b=" << batch << " eps=" << epsilon;
        if (schedule.max_iterations > 1) {
          EXPECT_LT(static_cast<double>(DoublingLadderSets(
                        schedule.theta_zero, schedule.max_iterations - 1)),
                    schedule.theta_max)
              << "eta=" << eta << " b=" << batch << " eps=" << epsilon;
        }
        EXPECT_GT(schedule.theta_max, previous_theta_max)
            << "eta=" << eta << " b=" << batch << " eps=" << epsilon;
        previous_theta_max = schedule.theta_max;
      }
    }
  }
}

// --- Truncation estimator math (Theorem 3.3) ------------------------------

TEST(TruncationTest, MissProbabilityMatchesHypergeometric) {
  // p(x; n, k) = C(n-x, k)/C(n, k); check n=10, x=3, k=2: C(7,2)/C(10,2).
  EXPECT_NEAR(MrrMissProbability(3, 10, 2), 21.0 / 45.0, 1e-12);
  EXPECT_NEAR(MrrMissProbability(0, 10, 2), 1.0, 1e-12);
  EXPECT_NEAR(MrrMissProbability(10, 10, 2), 0.0, 1e-12);
  EXPECT_NEAR(MrrMissProbability(9, 10, 2), 0.0, 1e-12);  // k > n - x
}

TEST(TruncationTest, RandomizedRoundingRatioWithinTheorem33) {
  // f(x) ∈ [1 - 1/e, 1] for every x, across many (n, η) combinations.
  for (uint64_t n : {10u, 100u, 1000u, 7777u}) {
    for (uint64_t eta :
         std::initializer_list<uint64_t>{1, 2, 3, n / 7 + 1, n / 3 + 1, n / 2, n}) {
      if (eta < 1 || eta > n) continue;
      for (uint64_t x = 1; x <= n; x = x < 10 ? x + 1 : x * 2) {
        const double f = EstimatorBiasRatio(x, n, eta, RootRounding::kRandomized);
        EXPECT_GE(f, kOneMinusInvE - 1e-9)
            << "n=" << n << " eta=" << eta << " x=" << x;
        EXPECT_LE(f, 1.0 + 1e-9) << "n=" << n << " eta=" << eta << " x=" << x;
      }
    }
  }
}

TEST(TruncationTest, FloorRoundingCanViolateLowerBound) {
  // §3.3 Remark: fixed k = ⌊n/η⌋ only guarantees [1 - 1/√e, 1]; find a case
  // below 1 - 1/e to prove the randomization is doing real work.
  const double loose = 1.0 - 1.0 / std::sqrt(2.718281828459045);
  bool found_violation = false;
  for (uint64_t n = 10; n <= 2000 && !found_violation; n = n * 3 / 2) {
    for (uint64_t eta = 2; eta < n && !found_violation; ++eta) {
      for (uint64_t x = eta; x <= std::min<uint64_t>(n, 4 * eta); ++x) {
        const double f = EstimatorBiasRatio(x, n, eta, RootRounding::kFloor);
        EXPECT_GE(f, loose - 1e-9);
        if (f < kOneMinusInvE - 1e-6) {
          found_violation = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(found_violation);
}

TEST(TruncationTest, CeilRoundingCanOverestimate) {
  // Fixed k = ⌊n/η⌋ + 1 yields ratios up to 2 (overestimation).
  bool found_overestimate = false;
  for (uint64_t n = 10; n <= 2000 && !found_overestimate; n = n * 3 / 2) {
    for (uint64_t eta = 2; eta < n; ++eta) {
      const double f = EstimatorBiasRatio(1, n, eta, RootRounding::kCeil);
      EXPECT_LE(f, 2.0 + 1e-9);
      if (f > 1.0 + 1e-6) {
        found_overestimate = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_overestimate);
}

TEST(TruncationTest, RatioApproachesOneForHugeSpread) {
  // x = n: every root lands in the reachable set, estimate = η = Γ.
  EXPECT_NEAR(EstimatorBiasRatio(1000, 1000, 100, RootRounding::kRandomized), 1.0,
              1e-12);
}

TEST(TruncationTest, ExpectedMissDecreasesInSpread) {
  double previous = 1.1;
  for (uint64_t x : {1, 2, 5, 10, 50, 100}) {
    const double p = ExpectedMissProbability(x, 100, 10, RootRounding::kRandomized);
    EXPECT_LT(p, previous);
    previous = p;
  }
}

}  // namespace
}  // namespace asti
