// Tests for the parallel deterministic greedy-coverage path: bit-identical
// selected/marginal_coverage/covered_sets to the sequential path at every
// thread count (with and without a candidate restriction, budgets up to
// the node count), agreement with the eager greedy reference, inverted
// index equality, parallel argmax parity, and a TRIM-B end-to-end
// thread-count-invariance regression exercising the shared pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/asti.h"
#include "core/trim.h"
#include "coverage/inverted_index.h"
#include "coverage/lazy_greedy.h"
#include "coverage/max_coverage.h"
#include "coverage_reference.h"
#include "diffusion/world.h"
#include "graph/generators.h"
#include "parallel/thread_pool.h"
#include "sampling/rr_collection.h"
#include "sampling/rr_set.h"
#include "util/rng.h"

namespace asti {
namespace {

// A real RR-set instance: heavy-tailed set sizes, n large enough that the
// parallel index build and batched stale-drain actually engage.
RrCollection RrInstance(NodeId n, size_t num_sets, uint64_t seed) {
  Rng graph_rng(seed);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(n, 3, graph_rng),
                                  WeightScheme::kWeightedCascade);
  EXPECT_TRUE(graph.ok());
  RrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(n);
  std::vector<NodeId> all_nodes(n);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  Rng rng(seed + 1);
  for (size_t i = 0; i < num_sets; ++i) {
    sampler.Generate(all_nodes, nullptr, collection, rng);
  }
  return collection;
}

void ExpectSameResult(const MaxCoverageResult& a, const MaxCoverageResult& b,
                      const char* context) {
  EXPECT_EQ(a.selected, b.selected) << context;
  EXPECT_EQ(a.marginal_coverage, b.marginal_coverage) << context;
  EXPECT_EQ(a.covered_sets, b.covered_sets) << context;
}

TEST(ParallelCoverageTest, InvertedIndexIdenticalAtEveryThreadCount) {
  const RrCollection collection = RrInstance(400, 6000, 11);
  const InvertedIndex reference = BuildInvertedIndex(collection, nullptr);
  ASSERT_EQ(reference.sets.size(), collection.TotalEntries());
  for (size_t threads : {2, 3, 4, 8}) {
    ThreadPool pool(threads);
    const InvertedIndex parallel = BuildInvertedIndex(collection, &pool);
    EXPECT_EQ(parallel.offsets, reference.offsets) << threads << " threads";
    EXPECT_EQ(parallel.sets, reference.sets) << threads << " threads";
  }
}

TEST(ParallelCoverageTest, InvertedIndexFewLargeSetsTrailingEmptyChunks) {
  // Regression: 17 sets on 8 threads dispatch as 6 chunks of 3 —
  // ParallelFor's ceil division leaves 2 trailing chunks undispatched, and
  // their per-chunk histograms used to be read uninitialized in the cursor
  // merge (out-of-bounds on empty vectors). Sets are large enough to pass
  // the parallel-build thresholds.
  const NodeId n = 1000;
  RrCollection collection(n);
  for (int s = 0; s < 17; ++s) {
    for (NodeId v = 0; v < n; ++v) collection.PushNode(v);
    collection.SealSet();
  }
  const InvertedIndex reference = BuildInvertedIndex(collection, nullptr);
  ThreadPool pool(8);
  const InvertedIndex parallel = BuildInvertedIndex(collection, &pool);
  EXPECT_EQ(parallel.offsets, reference.offsets);
  EXPECT_EQ(parallel.sets, reference.sets);
}

size_t ZeroGainPicks(const MaxCoverageResult& result) {
  return std::count(result.marginal_coverage.begin(), result.marginal_coverage.end(), 0u);
}

TEST(ParallelCoverageTest, LazyGreedyThreadCountInvariant) {
  // Budgets past the covering picks, up to the node count, run the
  // zero-gain fill after the sequential and after the batched drain. At
  // budget n, 5,000 sets leave a few zero-gain picks and 600 sets about
  // half of them.
  for (size_t num_sets : {600, 5000}) {
    const RrCollection collection = RrInstance(350, num_sets, 21);
    for (NodeId budget : {1u, 8u, 32u, 200u, 350u}) {
      const MaxCoverageResult reference =
          LazyGreedyMaxCoverage(collection, budget, nullptr, nullptr);
      if (budget == 350) {
        EXPECT_GT(ZeroGainPicks(reference), num_sets == 600 ? 100u : 1u);
      }
      const std::string context =
          std::to_string(num_sets) + " sets, b " + std::to_string(budget);
      for (size_t threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        const MaxCoverageResult parallel =
            LazyGreedyMaxCoverage(collection, budget, nullptr, &pool);
        ExpectSameResult(parallel, reference, context.c_str());
      }
    }
  }
}

TEST(ParallelCoverageTest, LazyGreedyThreadCountInvariantWithCandidates) {
  // An unsorted candidate list with duplicates: 233 unique nodes (v % 3 !=
  // 0) in descending order, every seventh listed twice. The fill must
  // still come out in ascending id.
  std::vector<NodeId> candidates;
  for (NodeId v = 350; v-- > 0;) {
    if (v % 3 == 0) continue;
    candidates.push_back(v);
    if (v % 7 == 0) candidates.push_back(v);
  }
  for (size_t num_sets : {600, 5000}) {
    const RrCollection collection = RrInstance(350, num_sets, 31);
    for (NodeId budget : {16u, 150u, 233u, 350u}) {
      const std::string context =
          std::to_string(num_sets) + " sets, b " + std::to_string(budget);
      const MaxCoverageResult reference =
          LazyGreedyMaxCoverage(collection, budget, &candidates, nullptr);
      ASSERT_EQ(reference.selected.size(), std::min<size_t>(budget, 233)) << context;
      for (NodeId v : reference.selected) EXPECT_NE(v % 3, 0u);
      if (budget == 350 && num_sets == 600) {
        EXPECT_GT(ZeroGainPicks(reference), 50u);
      }
      ExpectSameResult(reference,
                       oracle::EagerGreedyMaxCoverage(collection, budget, &candidates),
                       ("eager reference, " + context).c_str());
      for (size_t threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        const MaxCoverageResult parallel =
            LazyGreedyMaxCoverage(collection, budget, &candidates, &pool);
        ExpectSameResult(parallel, reference, context.c_str());
      }
    }
  }
}

TEST(ParallelCoverageTest, HeavyStaleDrainThreadCountInvariant) {
  // Adversarial CELF instance: every node's cached gain collapses after the
  // first pick, so the drain loop must pop (and re-evaluate) the entire
  // heap in geometrically growing batches — guaranteeing the parallel
  // dispatch path engages, not just the inline small-batch path. Node 0 is
  // in 20 sets with each other node; each other node also owns one private
  // set, so post-pick gains are all 1 with cached bounds of 21, and picks
  // proceed in ascending node id — fully pinned.
  const NodeId n = 4000;
  RrCollection collection(n);
  for (NodeId v = 1; v < n; ++v) {
    for (int r = 0; r < 20; ++r) {
      collection.PushNode(0);
      collection.PushNode(v);
      collection.SealSet();
    }
    collection.PushNode(v);
    collection.SealSet();
  }
  const MaxCoverageResult reference =
      LazyGreedyMaxCoverage(collection, 40, nullptr, nullptr);
  ASSERT_EQ(reference.selected.size(), 40u);
  EXPECT_EQ(reference.selected[0], 0u);  // the hub dominates pick 1
  for (size_t i = 1; i < reference.selected.size(); ++i) {
    EXPECT_EQ(reference.selected[i], static_cast<NodeId>(i));  // then id order
    EXPECT_EQ(reference.marginal_coverage[i], 1u);
  }
  for (size_t threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const MaxCoverageResult parallel =
        LazyGreedyMaxCoverage(collection, 40, nullptr, &pool);
    ExpectSameResult(parallel, reference, "heavy stale drain");
  }
}

TEST(ParallelCoverageTest, LazyGreedyParallelMatchesEagerGreedy) {
  // The full equivalence chain: parallel CELF == eager greedy reference,
  // pinned on one instance, past the covering picks too.
  const RrCollection collection = RrInstance(300, 4000, 41);
  ThreadPool pool(4);
  for (NodeId budget : {12u, 300u}) {
    const MaxCoverageResult eager = oracle::EagerGreedyMaxCoverage(collection, budget);
    const MaxCoverageResult parallel_lazy =
        LazyGreedyMaxCoverage(collection, budget, nullptr, &pool);
    ExpectSameResult(parallel_lazy, eager,
                     ("parallel lazy vs eager, b " + std::to_string(budget)).c_str());
  }
}

// The (coverage, lowest id) argmax by one ascending scan.
NodeId ScanArgMax(const std::vector<uint32_t>& coverage) {
  NodeId best = 0;
  for (NodeId v = 1; v < coverage.size(); ++v) {
    if (coverage[v] > coverage[best]) best = v;
  }
  return best;
}

TEST(ParallelCoverageTest, ArgMaxCoverageMatchesSequentialMember) {
  // 5000 nodes so the parallel scan path engages (threshold 4096).
  const RrCollection collection = RrInstance(5000, 3000, 51);
  // Nodes 4321 and 123 tie at the top, in different chunks at every pool
  // size: the lower id wins.
  RrCollection tied(5000);
  for (NodeId v : {4321u, 123u, 4321u, 123u, 77u}) {
    tied.PushNode(v);
    tied.SealSet();
  }
  ASSERT_EQ(ScanArgMax(tied.CoverageCounts()), 123u);
  for (const RrCollection* instance : {&collection, static_cast<const RrCollection*>(&tied)}) {
    const NodeId reference = ScanArgMax(instance->CoverageCounts());
    EXPECT_EQ(ArgMaxCoverage(*instance, nullptr), reference);
    for (size_t threads : {2, 4, 8}) {
      ThreadPool pool(threads);
      EXPECT_EQ(ArgMaxCoverage(*instance, &pool), reference) << threads << " threads";
    }
  }
}

TEST(ParallelCoverageTest, TrimBThreadCountInvariant) {
  // End-to-end: the full TRIM-B doubling loop (parallel sampling AND
  // parallel coverage sharing one pool) must produce identical seed
  // batches, sample counts, and activations at 2 and 4 workers.
  Rng graph_rng(61);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(90, 550, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());

  std::vector<AdaptiveRunTrace> traces;
  for (size_t threads : {2, 4}) {
    ThreadPool pool(threads);
    TrimOptions options;
    options.epsilon = 0.5;
    options.batch_size = 3;
    options.pool = &pool;
    Trim batched(*graph, DiffusionModel::kIndependentCascade, options);
    Rng world_rng(62);
    AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, 12, world_rng);
    Rng rng(63);
    traces.push_back(RunAdaptivePolicy(world, batched, rng));
  }
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].seeds, traces[1].seeds);
  EXPECT_EQ(traces[0].total_samples, traces[1].total_samples);
  EXPECT_EQ(traces[0].total_activated, traces[1].total_activated);
}

}  // namespace
}  // namespace asti
