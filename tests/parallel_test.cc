// Tests for src/parallel: ThreadPool scheduling, the deterministic indexed
// sampling contract (same base ⇒ identical collection at every pool size,
// including no pool), coverage parity with the sequential sampler driven
// by the same per-set Split streams, bulk-append semantics, and TRIM
// traces pinned identical across pool sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "core/asti.h"
#include "core/trim.h"
#include "diffusion/world.h"
#include "graph/generators.h"
#include "parallel/parallel_sampler.h"
#include "parallel/thread_pool.h"
#include "sampling/root_size.h"
#include "sampling/rr_buffer.h"
#include "sampling/rr_collection.h"
#include "sampling/rr_set.h"

namespace asti {
namespace {

std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

StatusOr<DirectedGraph> MakeTestGraph(NodeId n, size_t m, uint64_t seed) {
  Rng rng(seed);
  return BuildWeightedGraph(MakeErdosRenyi(n, m, rng), WeightScheme::kWeightedCascade);
}

bool SameCollections(const RrCollection& a, const RrCollection& b) {
  if (a.NumSets() != b.NumSets() || a.TotalEntries() != b.TotalEntries()) return false;
  for (size_t s = 0; s < a.NumSets(); ++s) {
    auto sa = a.Set(s);
    auto sb = b.Set(s);
    if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) return false;
  }
  return a.CoverageCounts() == b.CoverageCounts();
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunksAreOrderedAndDisjoint) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<size_t, std::pair<size_t, size_t>>> chunks;
  pool.ParallelFor(10, [&](size_t chunk, size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.push_back({chunk, {begin, end}});
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(chunks.front().second.first, 0u);
  EXPECT_EQ(chunks.back().second.second, 10u);
  for (size_t c = 1; c < chunks.size(); ++c) {
    // Chunk c starts where chunk c-1 ended: contiguous, index-ordered.
    EXPECT_EQ(chunks[c].second.first, chunks[c - 1].second.second);
  }
}

TEST(ThreadPoolTest, ParallelForHandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.ParallelFor(3, [&](size_t, size_t begin, size_t end) {
    counter.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(counter.load(), 3);
  pool.ParallelFor(0, [&](size_t, size_t, size_t) { counter.fetch_add(1000); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersAreIsolated) {
  // Two caller threads hammer one shared pool; each must observe exactly
  // its own items completed at every ParallelFor return. Also the TSAN
  // workload for the shared-pool protocol.
  ThreadPool pool(4);
  auto caller = [&pool](size_t items, int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<std::atomic<int>> touched(items);
      pool.ParallelFor(items, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
      });
      for (const auto& t : touched) ASSERT_EQ(t.load(), 1);
    }
  };
  std::thread a(caller, 193, 25);
  std::thread b(caller, 401, 25);
  a.join();
  b.join();
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(50, [&](size_t chunk, size_t begin, size_t end) {
    EXPECT_EQ(chunk, 0u);
    counter.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelBlocksRunsOrderedBlocksOnDistinctSlots) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.NumThreads(), 3u);
  std::mutex mutex;
  std::vector<std::array<size_t, 3>> blocks;  // {block, begin, end}
  std::vector<std::atomic<int>> touched(1000);
  std::vector<std::atomic<int>> busy(3);
  pool.ParallelBlocks(1000, 24, [&](size_t slot, size_t block, size_t begin, size_t end) {
    ASSERT_LT(slot, 3u);
    EXPECT_EQ(busy[slot].fetch_add(1), 0) << "slot " << slot << " ran two blocks at once";
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
    busy[slot].fetch_sub(1);
    std::lock_guard<std::mutex> lock(mutex);
    blocks.push_back({block, begin, end});
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  // ceil(1000 / 24) = 42 indices per block, so 24 blocks, the last of 34.
  std::sort(blocks.begin(), blocks.end());
  ASSERT_EQ(blocks.size(), 24u);
  for (size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b][0], b);
    EXPECT_EQ(blocks[b][1], 42 * b);
    EXPECT_EQ(blocks[b][2], std::min<size_t>(1000, 42 * (b + 1)));
  }
}

TEST(ThreadPoolTest, ParallelBlocksNeverWaitsForABusyWorker) {
  // Two other callers' loops hold both workers (each of their blocks waits
  // on a gate), so this loop's helper task queues behind them: the caller
  // must run every block itself and return while the others still block,
  // and the helper, which starts only after that, must not call fn.
  const auto caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::atomic<int> off_caller{0};
  {
    ThreadPool pool(2);
    std::promise<void> release;
    const std::shared_future<void> gate(release.get_future());
    std::atomic<int> entered{0};
    std::promise<void> all_entered;
    auto hold = [&] {
      // Two blocks, each waiting: the other caller and one worker.
      pool.ParallelBlocks(2, 2, [&](size_t, size_t, size_t, size_t) {
        if (entered.fetch_add(1) == 3) all_entered.set_value();
        std::shared_future<void>(gate).wait();
      });
    };
    std::thread a(hold);
    std::thread b(hold);
    all_entered.get_future().wait();
    pool.ParallelBlocks(100, 10, [&](size_t slot, size_t, size_t, size_t) {
      calls.fetch_add(1);
      if (slot != 0 || std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 10);
    release.set_value();
    a.join();
    b.join();
  }  // the pool runs its queued tasks, this loop's late helper included, before joining
  EXPECT_EQ(calls.load(), 10);
  EXPECT_EQ(off_caller.load(), 0);
}

// --- RrCollection bulk APIs ------------------------------------------------

TEST(RrCollectionBulkTest, AppendBatchMatchesSealLoop) {
  RrSetBuffer buffer;
  buffer.PushNode(1);
  buffer.PushNode(3);
  buffer.SealSet();
  buffer.PushNode(3);
  buffer.SealSet();

  RrCollection collection(5);
  collection.PushNode(2);
  collection.SealSet();
  collection.AppendBatch(buffer);

  EXPECT_EQ(collection.NumSets(), 3u);
  EXPECT_EQ(collection.TotalEntries(), 4u);
  EXPECT_EQ(collection.Coverage(2), 1u);
  EXPECT_EQ(collection.Coverage(1), 1u);
  EXPECT_EQ(collection.Coverage(3), 2u);
  auto set1 = collection.Set(1);
  ASSERT_EQ(set1.size(), 2u);
  EXPECT_EQ(set1[0], 1u);
  EXPECT_EQ(set1[1], 3u);
  auto set2 = collection.Set(2);
  ASSERT_EQ(set2.size(), 1u);
  EXPECT_EQ(set2[0], 3u);
}

TEST(RrCollectionBulkTest, AppendBatchIgnoresUnsealedTail) {
  RrSetBuffer buffer;
  buffer.PushNode(0);
  buffer.SealSet();
  buffer.PushNode(4);  // in-progress, never sealed

  RrCollection collection(5);
  collection.AppendBatch(buffer);
  EXPECT_EQ(collection.NumSets(), 1u);
  EXPECT_EQ(collection.TotalEntries(), 1u);
  EXPECT_EQ(collection.Coverage(4), 0u);
}

TEST(RrCollectionBulkTest, BufferClearKeepsProtocolUsable) {
  RrSetBuffer buffer;
  buffer.PushNode(7);
  buffer.SealSet();
  buffer.Clear();
  EXPECT_EQ(buffer.NumSets(), 0u);
  EXPECT_EQ(buffer.TotalEntries(), 0u);
  buffer.PushNode(2);
  buffer.SealSet();
  EXPECT_EQ(buffer.NumSets(), 1u);
  EXPECT_EQ(buffer.Set(0)[0], 2u);
}

// --- Deterministic parallel generation -------------------------------------

TEST(ParallelSamplerTest, SameSeedSameThreadsIdenticalCollection) {
  auto graph = MakeTestGraph(120, 700, 51);
  ASSERT_TRUE(graph.ok());
  const auto candidates = AllNodes(graph->NumNodes());

  RrCollection a(graph->NumNodes());
  RrCollection b(graph->NumNodes());
  for (RrCollection* out : {&a, &b}) {
    ThreadPool pool(4);
    ParallelRrSampler sampler(*graph, DiffusionModel::kIndependentCascade, &pool);
    Rng rng(52);
    sampler.GenerateIndexed(candidates, nullptr, 0, 500, *out, rng.Split());
  }
  EXPECT_TRUE(SameCollections(a, b));
}

TEST(ParallelSamplerTest, CollectionIndependentOfThreadCount) {
  auto graph = MakeTestGraph(100, 600, 53);
  ASSERT_TRUE(graph.ok());
  const auto candidates = AllNodes(graph->NumNodes());

  // The reference runs without a pool: its single chunk on this thread.
  RrCollection reference(graph->NumNodes());
  {
    ParallelRrSampler sampler(*graph, DiffusionModel::kIndependentCascade, nullptr);
    Rng rng(54);
    sampler.GenerateIndexed(candidates, nullptr, 0, 400, reference, rng.Split());
  }
  for (size_t threads : {1, 2, 3, 4, 7}) {
    ThreadPool pool(threads);
    ParallelRrSampler sampler(*graph, DiffusionModel::kIndependentCascade, &pool);
    RrCollection out(graph->NumNodes());
    Rng rng(54);
    sampler.GenerateIndexed(candidates, nullptr, 0, 400, out, rng.Split());
    EXPECT_TRUE(SameCollections(reference, out)) << threads << " threads";
  }
}

TEST(ParallelSamplerTest, CoverageIdenticalToSequentialSamplerSameStreams) {
  // The engine's contract: the call equals a sequential RrSampler loop in
  // which set i consumes stream base.Split(i). Λ_R(v) must match exactly
  // for every node on the same realization budget.
  auto graph = MakeTestGraph(150, 900, 55);
  ASSERT_TRUE(graph.ok());
  const auto candidates = AllNodes(graph->NumNodes());
  const size_t budget = 600;

  RrCollection sequential(graph->NumNodes());
  {
    RrSampler sampler(*graph, DiffusionModel::kIndependentCascade);
    Rng rng(56);
    const Rng batch_base = rng.Split();
    sequential.Reserve(budget);
    for (size_t i = 0; i < budget; ++i) {
      Rng set_rng = batch_base.Split(i);
      sampler.Generate(candidates, nullptr, sequential, set_rng);
    }
  }

  ThreadPool pool(4);
  ParallelRrSampler sampler(*graph, DiffusionModel::kIndependentCascade, &pool);
  RrCollection parallel(graph->NumNodes());
  Rng rng(56);
  sampler.GenerateIndexed(candidates, nullptr, 0, budget, parallel, rng.Split());

  ASSERT_EQ(parallel.NumSets(), budget);
  for (NodeId v = 0; v < graph->NumNodes(); ++v) {
    ASSERT_EQ(parallel.Coverage(v), sequential.Coverage(v)) << "node " << v;
  }
  EXPECT_TRUE(SameCollections(sequential, parallel));
}

TEST(ParallelSamplerTest, MrrBatchDeterministicAndDistinct) {
  auto graph = MakeTestGraph(80, 500, 57);
  ASSERT_TRUE(graph.ok());
  const auto candidates = AllNodes(graph->NumNodes());
  const RootSizeSampler root_size(graph->NumNodes(), 10);

  RrCollection a(graph->NumNodes());
  RrCollection b(graph->NumNodes());
  for (auto [out, threads] : {std::pair<RrCollection*, size_t>{&a, 2},
                              std::pair<RrCollection*, size_t>{&b, 5}}) {
    ThreadPool pool(threads);
    ParallelRrSampler sampler(*graph, DiffusionModel::kLinearThreshold, &pool);
    Rng rng(58);
    sampler.GenerateMrrIndexed(candidates, nullptr, root_size, 0, 300, *out, rng.Split());
  }
  EXPECT_TRUE(SameCollections(a, b));
  // mRR-sets hold distinct nodes and at least the expected root floor.
  for (size_t s = 0; s < a.NumSets(); ++s) {
    auto set = a.Set(s);
    std::set<NodeId> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), set.size());
    EXPECT_GE(set.size(), root_size.floor_k());
  }
}

TEST(ParallelSamplerTest, ResidualBatchesAvoidActiveNodes) {
  auto graph = MakeTestGraph(60, 400, 59);
  ASSERT_TRUE(graph.ok());
  BitVector active(60);
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < 60; ++v) {
    if (v % 4 == 0) {
      active.Set(v);
    } else {
      candidates.push_back(v);
    }
  }
  ThreadPool pool(3);
  ParallelRrSampler sampler(*graph, DiffusionModel::kIndependentCascade, &pool);
  RrCollection collection(60);
  Rng rng(60);
  sampler.GenerateIndexed(candidates, &active, 0, 400, collection, rng.Split());
  for (NodeId v = 0; v < 60; v += 4) EXPECT_EQ(collection.Coverage(v), 0u);
}

TEST(ParallelSamplerTest, CostMergedAcrossWorkersMatchesSequential) {
  auto graph = MakeTestGraph(100, 700, 61);
  ASSERT_TRUE(graph.ok());
  const auto candidates = AllNodes(graph->NumNodes());
  const size_t budget = 500;

  // Sequential cost over the same per-set streams.
  RrSampler sequential(*graph, DiffusionModel::kIndependentCascade);
  {
    RrCollection sink(graph->NumNodes());
    Rng rng(62);
    const Rng batch_base = rng.Split();
    for (size_t i = 0; i < budget; ++i) {
      Rng set_rng = batch_base.Split(i);
      sequential.Generate(candidates, nullptr, sink, set_rng);
    }
  }

  // Pooled and pool-less runs merge the same exact totals.
  ThreadPool four(4);
  for (ThreadPool* pool : {&four, static_cast<ThreadPool*>(nullptr)}) {
    ParallelRrSampler sampler(*graph, DiffusionModel::kIndependentCascade, pool);
    RrCollection sink(graph->NumNodes());
    Rng rng(62);
    sampler.GenerateIndexed(candidates, nullptr, 0, budget, sink, rng.Split());
    EXPECT_EQ(sampler.cost().nodes_visited, sequential.cost().nodes_visited);
    EXPECT_EQ(sampler.cost().edges_examined, sequential.cost().edges_examined);

    sampler.ResetCost();
    EXPECT_EQ(sampler.cost().nodes_visited, 0u);
    EXPECT_EQ(sampler.cost().edges_examined, 0u);
  }
}

// --- TRIM with threads ------------------------------------------------------

TEST(ParallelTrimTest, ThreadedTrimIsThreadCountInvariant) {
  // The full OPIM-C doubling loop run at 2 and at 4 workers must produce
  // identical seed choices, sample counts, and iteration counts: the engine
  // guarantees the collection (and thus every certify decision) does not
  // depend on the pool size.
  auto graph = MakeTestGraph(90, 550, 63);
  ASSERT_TRUE(graph.ok());

  std::vector<AdaptiveRunTrace> traces;
  for (size_t threads : {2, 4}) {
    ThreadPool pool(threads);
    TrimOptions options;
    options.epsilon = 0.5;
    options.pool = &pool;
    Trim trim(*graph, DiffusionModel::kIndependentCascade, options);
    Rng world_rng(64);
    AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, 12, world_rng);
    Rng rng(65);
    traces.push_back(RunAdaptivePolicy(world, trim, rng));
  }
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].seeds, traces[1].seeds);
  EXPECT_EQ(traces[0].total_samples, traces[1].total_samples);
  EXPECT_EQ(traces[0].total_activated, traces[1].total_activated);
  ASSERT_EQ(traces[0].rounds.size(), traces[1].rounds.size());
  for (size_t r = 0; r < traces[0].rounds.size(); ++r) {
    EXPECT_EQ(traces[0].rounds[r].seeds, traces[1].rounds[r].seeds);
    EXPECT_EQ(traces[0].rounds[r].num_samples, traces[1].rounds[r].num_samples);
  }
}

TEST(ParallelTrimTest, ThreadedTrimMatchesSequentialQuality) {
  // Without a pool and at 3 workers TRIM consumes the same index-derived
  // streams, so the traces — every round's seeds and samples — are
  // identical, and both reach the target.
  auto graph = MakeTestGraph(90, 550, 66);
  ASSERT_TRUE(graph.ok());
  const NodeId eta = 15;

  ThreadPool three(3);
  std::vector<AdaptiveRunTrace> traces;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &three}) {
    TrimOptions options;
    options.epsilon = 0.5;
    options.pool = pool;
    Trim trim(*graph, DiffusionModel::kIndependentCascade, options);
    Rng world_rng(67);
    AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, eta, world_rng);
    Rng rng(68);
    traces.push_back(RunAdaptivePolicy(world, trim, rng));
    EXPECT_TRUE(traces.back().target_reached);
    EXPECT_GE(traces.back().total_activated, eta);
  }
  EXPECT_EQ(traces[0].seeds, traces[1].seeds);
  EXPECT_EQ(traces[0].total_samples, traces[1].total_samples);
  EXPECT_EQ(traces[0].total_activated, traces[1].total_activated);
  ASSERT_EQ(traces[0].rounds.size(), traces[1].rounds.size());
  for (size_t r = 0; r < traces[0].rounds.size(); ++r) {
    EXPECT_EQ(traces[0].rounds[r].seeds, traces[1].rounds[r].seeds);
    EXPECT_EQ(traces[0].rounds[r].num_samples, traces[1].rounds[r].num_samples);
  }
}

}  // namespace
}  // namespace asti
