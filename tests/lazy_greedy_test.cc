// Tests for coverage/lazy_greedy.h: exact agreement with the eager greedy
// reference (coverage_reference.h) across random instances, budgets past
// the covering picks included, and the candidate-restriction contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>

#include "coverage/lazy_greedy.h"
#include "coverage_reference.h"
#include "graph/generators.h"
#include "parallel/thread_pool.h"
#include "sampling/rr_set.h"
#include "util/rng.h"

namespace asti {
namespace {

RrCollection RandomCollection(NodeId n, int num_sets, uint64_t seed) {
  Rng rng(seed);
  RrCollection collection(n);
  for (int s = 0; s < num_sets; ++s) {
    const size_t size = 1 + rng.NextBounded(5);
    std::set<NodeId> set;
    while (set.size() < size) set.insert(static_cast<NodeId>(rng.NextBounded(n)));
    for (NodeId v : set) collection.PushNode(v);
    collection.SealSet();
  }
  return collection;
}

// Two thirds of [0, n) in a shuffled order, with every fifth entry listed
// twice: neither sorted nor unique.
std::vector<NodeId> ShuffledCandidatesWithDuplicates(NodeId n, uint64_t seed) {
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < n; ++v) {
    if (v % 3 != 1) candidates.push_back(v);
  }
  const size_t unique = candidates.size();
  for (size_t i = 0; i < unique; i += 5) candidates.push_back(candidates[i]);
  Rng rng(seed);
  for (size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.NextBounded(i)]);
  }
  return candidates;
}

TEST(LazyGreedyTest, MatchesEagerGreedyOnRandomInstances) {
  // Budgets run past the picks that cover every set, up to the node count,
  // so CELF's zero-gain fill is compared too: without candidates and with
  // an unsorted candidate list that has duplicates, at 1/2/4/8 threads.
  constexpr NodeId kNodes = 40;
  std::vector<std::unique_ptr<ThreadPool>> pools;  // 1 thread: no pool
  pools.push_back(nullptr);
  for (size_t threads : {2, 4, 8}) pools.push_back(std::make_unique<ThreadPool>(threads));
  size_t filled_runs = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const RrCollection collection = RandomCollection(kNodes, 200, seed);
    const std::vector<NodeId> shuffled = ShuffledCandidatesWithDuplicates(kNodes, seed);
    const std::vector<NodeId>* all_nodes = nullptr;
    for (const std::vector<NodeId>* candidates : {all_nodes, &shuffled}) {
      for (NodeId budget : {1u, 3u, 8u, 20u, 30u, kNodes}) {
        const MaxCoverageResult eager =
            oracle::EagerGreedyMaxCoverage(collection, budget, candidates);
        if (!eager.marginal_coverage.empty() && eager.marginal_coverage.back() == 0) {
          ++filled_runs;
        }
        for (const std::unique_ptr<ThreadPool>& pool : pools) {
          const MaxCoverageResult lazy =
              LazyGreedyMaxCoverage(collection, budget, candidates, pool.get());
          const std::string context =
              "seed " + std::to_string(seed) + " b " + std::to_string(budget) +
              (candidates != nullptr ? " shuffled candidates" : " all nodes") + " threads " +
              std::to_string(pool != nullptr ? pool->NumThreads() : 1);
          EXPECT_EQ(lazy.selected, eager.selected) << context;
          EXPECT_EQ(lazy.covered_sets, eager.covered_sets) << context;
          EXPECT_EQ(lazy.marginal_coverage, eager.marginal_coverage) << context;
        }
      }
    }
  }
  EXPECT_GT(filled_runs, 20u);  // the zero-gain fill was exercised
}

TEST(LazyGreedyTest, MatchesOnRealRrSets) {
  Rng graph_rng(231);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(300, 2, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  RrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(300);
  std::vector<NodeId> all_nodes(300);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  Rng rng(232);
  for (int i = 0; i < 3000; ++i) sampler.Generate(all_nodes, nullptr, collection, rng);
  for (NodeId budget : {16u, 300u}) {
    const MaxCoverageResult eager = oracle::EagerGreedyMaxCoverage(collection, budget);
    const MaxCoverageResult lazy = LazyGreedyMaxCoverage(collection, budget);
    EXPECT_EQ(lazy.selected, eager.selected) << "b " << budget;
    EXPECT_EQ(lazy.marginal_coverage, eager.marginal_coverage) << "b " << budget;
    EXPECT_EQ(lazy.covered_sets, eager.covered_sets) << "b " << budget;
  }
}

TEST(LazyGreedyTest, HonorsCandidateRestriction) {
  const RrCollection collection = RandomCollection(20, 100, 5);
  std::vector<NodeId> candidates = {3, 7, 11, 15};
  const MaxCoverageResult lazy = LazyGreedyMaxCoverage(collection, 3, &candidates);
  ASSERT_EQ(lazy.selected.size(), 3u);
  for (NodeId v : lazy.selected) {
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), v) != candidates.end());
  }
  const MaxCoverageResult eager = oracle::EagerGreedyMaxCoverage(collection, 3, &candidates);
  EXPECT_EQ(lazy.selected, eager.selected);
}

TEST(LazyGreedyTest, DuplicateCandidatesSelectedAtMostOnce) {
  // Regression: a duplicated candidate used to get two heap entries, and
  // the second pop re-evaluated to gain 0 and was accepted as a filler
  // pick — returning the same node twice and corrupting TRIM-B's
  // residual-list contract.
  const RrCollection collection = RandomCollection(12, 60, 7);
  std::vector<NodeId> candidates = {4, 4, 9, 4, 9, 2};
  const MaxCoverageResult lazy = LazyGreedyMaxCoverage(collection, 5, &candidates);
  EXPECT_EQ(lazy.selected.size(), 3u);  // pool counts unique nodes
  std::set<NodeId> unique(lazy.selected.begin(), lazy.selected.end());
  EXPECT_EQ(unique.size(), lazy.selected.size());
  // Same result as the deduplicated candidate list.
  std::vector<NodeId> deduped = {4, 9, 2};
  const MaxCoverageResult reference = LazyGreedyMaxCoverage(collection, 5, &deduped);
  EXPECT_EQ(lazy.selected, reference.selected);
  EXPECT_EQ(lazy.marginal_coverage, reference.marginal_coverage);
}

TEST(LazyGreedyTest, BudgetBeyondCandidatesClamps) {
  const RrCollection collection = RandomCollection(10, 30, 9);
  std::vector<NodeId> candidates = {1, 2};
  const MaxCoverageResult lazy = LazyGreedyMaxCoverage(collection, 10, &candidates);
  EXPECT_EQ(lazy.selected.size(), 2u);
}

TEST(LazyGreedyTest, EmptyCollectionStillSelects) {
  RrCollection collection(6);
  const MaxCoverageResult lazy = LazyGreedyMaxCoverage(collection, 2);
  EXPECT_EQ(lazy.selected, (std::vector<NodeId>{0, 1}));  // zero gains: lowest ids
  EXPECT_EQ(lazy.covered_sets, 0u);
}

}  // namespace
}  // namespace asti
