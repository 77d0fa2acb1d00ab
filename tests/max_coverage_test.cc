// Tests for the greedy max-coverage solver (coverage/lazy_greedy.h) on hand
// instances, its ρ_b guarantee against the exact optimum of
// coverage_reference.h, and the ratio math of coverage/max_coverage.h.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "coverage/lazy_greedy.h"
#include "coverage/max_coverage.h"
#include "coverage_reference.h"
#include "util/rng.h"

namespace asti {
namespace {

// Builds a collection from explicit sets.
RrCollection FromSets(NodeId n, const std::vector<std::vector<NodeId>>& sets) {
  RrCollection collection(n);
  for (const auto& set : sets) {
    for (NodeId v : set) collection.PushNode(v);
    collection.SealSet();
  }
  return collection;
}

TEST(GreedyMaxCoverageTest, SinglePickIsArgMax) {
  const RrCollection collection =
      FromSets(4, {{0, 1}, {1, 2}, {1, 3}, {0}});
  const MaxCoverageResult result = LazyGreedyMaxCoverage(collection, 1);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0], 1u);
  EXPECT_EQ(result.covered_sets, 3u);
}

TEST(GreedyMaxCoverageTest, TwoPicksCoverAll) {
  const RrCollection collection =
      FromSets(4, {{0, 1}, {1, 2}, {1, 3}, {0}});
  const MaxCoverageResult result = LazyGreedyMaxCoverage(collection, 2);
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0], 1u);
  EXPECT_EQ(result.selected[1], 0u);
  EXPECT_EQ(result.covered_sets, 4u);
}

TEST(GreedyMaxCoverageTest, MarginalCoverageDiminishes) {
  Rng rng(101);
  RrCollection collection(30);
  for (int s = 0; s < 200; ++s) {
    const size_t size = 1 + rng.NextBounded(5);
    std::set<NodeId> set;
    while (set.size() < size) set.insert(static_cast<NodeId>(rng.NextBounded(30)));
    for (NodeId v : set) collection.PushNode(v);
    collection.SealSet();
  }
  const MaxCoverageResult result = LazyGreedyMaxCoverage(collection, 10);
  for (size_t i = 1; i < result.marginal_coverage.size(); ++i) {
    EXPECT_LE(result.marginal_coverage[i], result.marginal_coverage[i - 1]);
  }
  const uint32_t total = std::accumulate(result.marginal_coverage.begin(),
                                         result.marginal_coverage.end(), 0u);
  EXPECT_EQ(total, result.covered_sets);
}

TEST(GreedyMaxCoverageTest, BudgetLargerThanNodes) {
  const RrCollection collection = FromSets(3, {{0}, {1}, {2}});
  const MaxCoverageResult result = LazyGreedyMaxCoverage(collection, 10);
  EXPECT_EQ(result.selected.size(), 3u);
  EXPECT_EQ(result.covered_sets, 3u);
}

TEST(GreedyMaxCoverageTest, EmptyCollection) {
  RrCollection collection(5);
  const MaxCoverageResult result = LazyGreedyMaxCoverage(collection, 2);
  EXPECT_EQ(result.covered_sets, 0u);
  EXPECT_EQ(result.selected.size(), 2u);  // picks exist but gain nothing
}

TEST(ExactMaxCoverageTest, MatchesBruteForceExpectation) {
  // Optimal pair is {0, 3}: covers sets 0,1 via 0 and 2,3 via 3. Greedy
  // might pick 1 first (covers 0 and 2) then anything — classic gap case.
  const RrCollection collection =
      FromSets(4, {{0, 1}, {0}, {1, 3}, {3}});
  const MaxCoverageResult exact = oracle::ExactMaxCoverage(collection, 2);
  EXPECT_EQ(exact.covered_sets, 4u);
}

TEST(GreedyVsExactTest, GreedyWithinRhoBOnRandomInstances) {
  Rng rng(102);
  for (int instance = 0; instance < 30; ++instance) {
    const NodeId n = 8;
    RrCollection collection(n);
    const int num_sets = 12;
    for (int s = 0; s < num_sets; ++s) {
      const size_t size = 1 + rng.NextBounded(3);
      std::set<NodeId> set;
      while (set.size() < size) set.insert(static_cast<NodeId>(rng.NextBounded(n)));
      for (NodeId v : set) collection.PushNode(v);
      collection.SealSet();
    }
    for (NodeId b = 1; b <= 3; ++b) {
      const MaxCoverageResult greedy = LazyGreedyMaxCoverage(collection, b);
      const MaxCoverageResult exact = oracle::ExactMaxCoverage(collection, b);
      EXPECT_GE(greedy.covered_sets + 1e-9,
                GreedyCoverageRatio(b) * exact.covered_sets)
          << "instance " << instance << " b=" << b;
      EXPECT_LE(greedy.covered_sets, exact.covered_sets);
    }
  }
}

TEST(GreedyMaxCoverageTest, CandidateRestrictionHonored) {
  // Sets only mention nodes 1 and 2, but node 0 would win zero-gain ties.
  // With candidates {1, 2, 3}, node 0 must never be picked (regression for
  // TRIM-B selecting an active node as zero-gain filler).
  const RrCollection collection = FromSets(4, {{1}, {1}, {2}});
  const std::vector<NodeId> candidates = {1, 2, 3};
  const MaxCoverageResult result = LazyGreedyMaxCoverage(collection, 3, &candidates);
  ASSERT_EQ(result.selected.size(), 3u);
  for (NodeId v : result.selected) {
    EXPECT_NE(v, 0u);
  }
  EXPECT_EQ(result.covered_sets, 3u);
}

TEST(GreedyMaxCoverageTest, NeverPicksTheSameNodeTwice) {
  // All gains collapse to zero after one pick; filler picks must be
  // distinct nodes, not node 0 repeated.
  const RrCollection collection = FromSets(5, {{2}, {2}});
  const MaxCoverageResult result = LazyGreedyMaxCoverage(collection, 4);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), result.selected.size());
}

TEST(GreedyMaxCoverageTest, DuplicateCandidatesSelectedAtMostOnce) {
  // Duplicates in `candidates` must not inflate the pick pool (the eager
  // solver once crashed its best != kInvalidNode check when every unique
  // candidate was taken).
  const RrCollection collection = FromSets(6, {{1, 5}, {5}, {3}});
  const std::vector<NodeId> candidates = {5, 5, 3, 5};
  const MaxCoverageResult result = LazyGreedyMaxCoverage(collection, 4, &candidates);
  EXPECT_EQ(result.selected.size(), 2u);
  std::set<NodeId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), result.selected.size());
  EXPECT_EQ(result.covered_sets, 3u);
}

TEST(GreedyCoverageRatioTest, KnownValues) {
  EXPECT_DOUBLE_EQ(GreedyCoverageRatio(1), 1.0);
  EXPECT_DOUBLE_EQ(GreedyCoverageRatio(2), 0.75);
  EXPECT_NEAR(GreedyCoverageRatio(4), 1.0 - std::pow(0.75, 4), 1e-12);
  // Approaches 1 - 1/e from above.
  EXPECT_GT(GreedyCoverageRatio(1000), 1.0 - 1.0 / std::exp(1.0));
  EXPECT_NEAR(GreedyCoverageRatio(1000), 1.0 - 1.0 / std::exp(1.0), 1e-3);
}

TEST(GreedyCoverageRatioTest, MonotoneDecreasingInB) {
  double previous = 1.1;
  for (NodeId b = 1; b <= 32; ++b) {
    const double rho = GreedyCoverageRatio(b);
    EXPECT_LT(rho, previous);
    previous = rho;
  }
}

}  // namespace
}  // namespace asti
