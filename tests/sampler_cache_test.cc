// Tests for the shared sampler cache (src/sampling/shared_collection.h,
// src/sampling/sampler_cache.h): sealed-prefix publication, view pinning,
// under-delivery discard, and the certified-reuse determinism contract —
// a view of the first P sets is bit-identical to fresh sampling no matter
// which requests grew the collection, at what batch sizes, on how many
// threads, or how readers and extenders interleave. The concurrency cases
// (racing readers + extenders, swap-mid-extend, retire-with-live-view)
// are in the CI TSAN job's target list. The round-1 selection memo cases
// pin that a memoized pick is exactly what a fresh cache computes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/graph_catalog.h"
#include "baselines/adaptim.h"
#include "core/trim.h"
#include "graph/generators.h"
#include "parallel/thread_pool.h"
#include "sampling/sampler_cache.h"
#include "sampling/shared_collection.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace asti {
namespace {

// Content fingerprint of the first `prefix` sets of a view.
std::string Fingerprint(const CollectionView& view, size_t prefix) {
  std::ostringstream out;
  for (size_t i = 0; i < prefix; ++i) {
    for (NodeId node : view.Set(i)) out << node << ',';
    out << ';';
  }
  return out.str();
}

DirectedGraph TestGraph(uint64_t seed = 401, NodeId nodes = 150) {
  Rng rng(seed);
  auto graph =
      BuildWeightedGraph(MakeBarabasiAlbert(nodes, 2, rng), WeightScheme::kWeightedCascade);
  ASM_CHECK(graph.ok());
  return std::move(graph).value();
}

// Appends `count` single-node sets whose content encodes the global index,
// so prefix reads can be checked against a closed form.
void GenerateIndexMarkers(size_t first, size_t count, RrCollection& staging,
                          NodeId num_nodes) {
  for (size_t i = 0; i < count; ++i) {
    staging.PushNode(static_cast<NodeId>((first + i) % num_nodes));
    staging.SealSet();
  }
}

// --- CollectionView over owned collections ---------------------------------

TEST(CollectionViewTest, BorrowedViewMirrorsOwnedCollection) {
  RrCollection collection(10);
  for (NodeId v = 0; v < 6; ++v) {
    collection.PushNode(v);
    collection.PushNode((v + 1) % 10);
    collection.SealSet();
  }
  const CollectionView view = collection;  // implicit borrow
  EXPECT_EQ(view.NumSets(), collection.NumSets());
  EXPECT_EQ(view.TotalEntries(), collection.TotalEntries());
  EXPECT_EQ(view.num_nodes(), collection.num_nodes());
  for (size_t i = 0; i < collection.NumSets(); ++i) {
    ASSERT_EQ(view.Set(i).size(), collection.Set(i).size());
    EXPECT_TRUE(std::equal(view.Set(i).begin(), view.Set(i).end(),
                           collection.Set(i).begin()));
  }
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_EQ(view.Coverage(v), collection.Coverage(v));
  }
}

// --- SharedRrCollection sealed-prefix protocol ------------------------------

TEST(SharedRrCollectionTest, PrefixesAreExactAndCoverageMatchesReplay) {
  constexpr NodeId kNodes = 25;
  SharedRrCollection shared(kNodes);
  ASSERT_TRUE(shared.ExtendTo(10, [&](size_t first, size_t count, RrCollection& staging) {
    GenerateIndexMarkers(first, count, staging, kNodes);
  }));
  ASSERT_TRUE(shared.ExtendTo(37, [&](size_t first, size_t count, RrCollection& staging) {
    GenerateIndexMarkers(first, count, staging, kNodes);
  }));
  EXPECT_EQ(shared.SealedSets(), 37u);

  // Boundary prefix (10), intra-chunk prefix (23), and the full prefix all
  // read the closed-form content with exact per-node coverage.
  for (size_t prefix : {0u, 10u, 23u, 37u}) {
    const CollectionView view = shared.Prefix(prefix);
    ASSERT_EQ(view.NumSets(), prefix);
    std::vector<uint32_t> expected(kNodes, 0);
    for (size_t i = 0; i < prefix; ++i) {
      ASSERT_EQ(view.Set(i).size(), 1u) << "prefix=" << prefix << " i=" << i;
      EXPECT_EQ(view.Set(i)[0], static_cast<NodeId>(i % kNodes));
      ++expected[i % kNodes];
    }
    for (NodeId v = 0; v < kNodes; ++v) {
      EXPECT_EQ(view.Coverage(v), expected[v]) << "prefix=" << prefix << " v=" << v;
    }
  }
}

TEST(SharedRrCollectionTest, LiveViewsSurviveFurtherGrowth) {
  constexpr NodeId kNodes = 11;
  SharedRrCollection shared(kNodes);
  ASSERT_TRUE(shared.ExtendTo(5, [&](size_t first, size_t count, RrCollection& staging) {
    GenerateIndexMarkers(first, count, staging, kNodes);
  }));
  const CollectionView early = shared.Prefix(5);
  const std::string before = Fingerprint(early, 5);
  for (size_t target = 20; target <= 200; target *= 2) {
    ASSERT_TRUE(
        shared.ExtendTo(target, [&](size_t first, size_t count, RrCollection& staging) {
          GenerateIndexMarkers(first, count, staging, kNodes);
        }));
  }
  EXPECT_EQ(Fingerprint(early, 5), before);  // growth never moved the storage
  EXPECT_EQ(Fingerprint(shared.Prefix(5), 5), before);
}

TEST(SharedRrCollectionTest, UnderDeliveryIsDiscardedWhole) {
  constexpr NodeId kNodes = 9;
  SharedRrCollection shared(kNodes);
  ASSERT_TRUE(shared.ExtendTo(4, [&](size_t first, size_t count, RrCollection& staging) {
    GenerateIndexMarkers(first, count, staging, kNodes);
  }));
  // A cancelled extension delivers fewer sets than asked: nothing of the
  // partial batch may be published (index-keyed determinism would break).
  EXPECT_FALSE(shared.ExtendTo(100, [&](size_t first, size_t count, RrCollection& staging) {
    GenerateIndexMarkers(first, count / 2, staging, kNodes);
  }));
  EXPECT_EQ(shared.SealedSets(), 4u);
  // The next full delivery extends cleanly at the same indices.
  ASSERT_TRUE(shared.ExtendTo(100, [&](size_t first, size_t count, RrCollection& staging) {
    EXPECT_EQ(first, 4u);
    GenerateIndexMarkers(first, count, staging, kNodes);
  }));
  EXPECT_EQ(shared.SealedSets(), 100u);
  EXPECT_EQ(shared.Prefix(100).Set(4)[0], static_cast<NodeId>(4 % kNodes));
}

// --- SamplerCache determinism ----------------------------------------------

TEST(SamplerCacheTest, PrefixContentIsIndependentOfAcquisitionHistory) {
  const DirectedGraph graph = TestGraph();
  const SamplerCacheKey key = SamplerCacheKey::Mrr(DiffusionModel::kIndependentCascade, 20);

  // Cache A grows in many small steps, cache B in one jump.
  SamplerCache stepped(graph);
  for (size_t target : {7u, 30u, 64u, 200u}) {
    stepped.Acquire(key, target, nullptr, nullptr, nullptr);
  }
  SamplerCache direct(graph);
  const CollectionView from_direct = direct.Acquire(key, 200, nullptr, nullptr, nullptr);
  const CollectionView from_stepped = stepped.Acquire(key, 200, nullptr, nullptr, nullptr);
  ASSERT_EQ(from_direct.NumSets(), 200u);
  ASSERT_EQ(from_stepped.NumSets(), 200u);
  EXPECT_EQ(Fingerprint(from_stepped, 200), Fingerprint(from_direct, 200));
}

TEST(SamplerCacheTest, PoolAndSequentialExtensionsAreBitIdentical) {
  const DirectedGraph graph = TestGraph();
  for (const SamplerCacheKey& key :
       {SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade),
        SamplerCacheKey::Rr(DiffusionModel::kLinearThreshold),
        SamplerCacheKey::Mrr(DiffusionModel::kIndependentCascade, 12)}) {
    SamplerCache sequential(graph);
    const std::string reference =
        Fingerprint(sequential.Acquire(key, 150, nullptr, nullptr, nullptr), 150);
    for (size_t threads : {2u, 4u}) {
      ThreadPool pool(threads);
      SamplerCache pooled(graph);
      const CollectionView view = pooled.Acquire(key, 150, &pool, nullptr, nullptr);
      ASSERT_EQ(view.NumSets(), 150u);
      EXPECT_EQ(Fingerprint(view, 150), reference) << "threads=" << threads;
    }
  }
}

TEST(SamplerCacheTest, StatsDistinguishMissExtensionAndHit) {
  const DirectedGraph graph = TestGraph();
  const SamplerCacheKey key = SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade);
  SamplerCache cache(graph);
  cache.Acquire(key, 50, nullptr, nullptr, nullptr);  // miss (empty entry)
  cache.Acquire(key, 80, nullptr, nullptr, nullptr);  // extension
  cache.Acquire(key, 30, nullptr, nullptr, nullptr);  // hit (sealed prefix)
  const SamplerCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.extensions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.sets_extended, 80u);
  EXPECT_EQ(stats.sets_reused, 50u + 30u);  // extension reused 50, hit 30
  EXPECT_GT(cache.TotalBytes(), 0u);
}

TEST(SamplerCacheTest, PreFiredCancellationYieldsOnlySealedSets) {
  const DirectedGraph graph = TestGraph();
  const SamplerCacheKey key = SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade);
  SamplerCache cache(graph);
  cache.Acquire(key, 25, nullptr, nullptr, nullptr);

  CancelToken token;
  token.Cancel();
  const CancelScope fired(&token, CancelScope::kNoDeadline);
  const CollectionView view = cache.Acquire(key, 500, nullptr, &fired, nullptr);
  // The extension was abandoned: the caller sees a short view (its signal
  // to unwind) and the sealed prefix did not grow.
  EXPECT_LT(view.NumSets(), 500u);
  const SamplerCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.sets_extended, 25u);
}

// --- Concurrency (exercised under TSAN in CI) -------------------------------

// Racing readers and extenders on one entry: every view any thread ever
// observes must be a prefix of the same key-derived stream.
TEST(SamplerCacheTest, ConcurrentReadersAndExtendersSeeOneStream) {
  const DirectedGraph graph = TestGraph(402, 120);
  const SamplerCacheKey key = SamplerCacheKey::Mrr(DiffusionModel::kIndependentCascade, 15);

  // Reference stream from an isolated cache.
  constexpr size_t kMaxSets = 240;
  SamplerCache reference(graph);
  const std::string expected =
      Fingerprint(reference.Acquire(key, kMaxSets, nullptr, nullptr, nullptr), kMaxSets);

  SamplerCache cache(graph);
  ThreadPool pool(2);
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  // Two extenders racing up the ladder, two readers sampling prefixes.
  for (size_t worker = 0; worker < 2; ++worker) {
    threads.emplace_back([&cache, &key, &pool, &expected, &mismatch] {
      for (size_t target = 15; target <= kMaxSets; target *= 2) {
        const CollectionView view =
            cache.Acquire(key, target, &pool, nullptr, nullptr);
        if (view.NumSets() != target ||
            Fingerprint(view, target) != expected.substr(0, Fingerprint(view, target).size())) {
          mismatch.store(true);
        }
      }
    });
  }
  for (size_t reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&cache, &key, &expected, &mismatch] {
      for (size_t round = 0; round < 40; ++round) {
        const size_t target = 5 + (round % 13);
        const CollectionView view =
            cache.Acquire(key, target, nullptr, nullptr, nullptr);
        const std::string got = Fingerprint(view, target);
        if (view.NumSets() != target || got != expected.substr(0, got.size())) {
          mismatch.store(true);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(Fingerprint(cache.Acquire(key, kMaxSets, nullptr, nullptr, nullptr), kMaxSets),
            expected);
}

// A catalog Swap while an extension is in flight on the old epoch's cache:
// the old snapshot stays pinned by its GraphRef, the extension completes
// on it, and a fresh cache for the new epoch is fully independent.
TEST(SamplerCacheTest, SwapMidExtendLeavesOldEpochIntact) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Register("tenant", TestGraph(403)).ok());
  auto old_ref = catalog.Get("tenant");
  ASSERT_TRUE(old_ref.ok());

  const SamplerCacheKey key = SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade);
  SamplerCache old_cache(old_ref->graph());
  const std::string expected = [&] {
    SamplerCache isolated(old_ref->graph());
    return Fingerprint(isolated.Acquire(key, 200, nullptr, nullptr, nullptr), 200);
  }();

  std::thread extender([&old_cache, &key] {
    for (size_t target = 25; target <= 200; target *= 2) {
      old_cache.Acquire(key, target, nullptr, nullptr, nullptr);
    }
  });
  ASSERT_TRUE(catalog.Swap("tenant", TestGraph(404, 90)).ok());  // mid-extend
  auto new_ref = catalog.Get("tenant");
  ASSERT_TRUE(new_ref.ok());
  EXPECT_EQ(new_ref->epoch(), 2u);
  SamplerCache new_cache(new_ref->graph());  // the engine's fresh GraphState
  const CollectionView new_view = new_cache.Acquire(key, 40, nullptr, nullptr, nullptr);
  extender.join();

  EXPECT_EQ(Fingerprint(old_cache.Acquire(key, 200, nullptr, nullptr, nullptr), 200),
            expected);
  // New-epoch sets are sampled on the new (smaller) snapshot — a different
  // stream entirely, proving no state leaked across the swap.
  EXPECT_EQ(new_view.NumSets(), 40u);
  EXPECT_NE(Fingerprint(new_view, 40), expected.substr(0, Fingerprint(new_view, 40).size()));
}

// Retiring the graph — and destroying the cache itself — must not
// invalidate a live view: views pin the chunks they span.
TEST(SamplerCacheTest, RetireWithLiveViewKeepsTheViewReadable) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Register("tenant", TestGraph(405)).ok());

  CollectionView survivor;
  std::string expected;
  {
    auto ref = catalog.Get("tenant");
    ASSERT_TRUE(ref.ok());
    auto cache = std::make_unique<SamplerCache>(ref->graph());
    const SamplerCacheKey key = SamplerCacheKey::Rr(DiffusionModel::kLinearThreshold);
    survivor = cache->Acquire(key, 60, nullptr, nullptr, nullptr);
    expected = Fingerprint(survivor, 60);
    ASSERT_TRUE(catalog.Retire("tenant").ok());  // name gone from the catalog
    cache.reset();  // the engine's GraphState died with in-flight work done
  }  // ref released: the snapshot pin is gone too
  ASSERT_FALSE(catalog.Get("tenant").ok());
  ASSERT_EQ(survivor.NumSets(), 60u);
  EXPECT_EQ(Fingerprint(survivor, 60), expected);
  uint32_t total_coverage = 0;
  for (NodeId v = 0; v < survivor.num_nodes(); ++v) total_coverage += survivor.Coverage(v);
  EXPECT_GT(total_coverage, 0u);
}

// --- Byte-budget LRU eviction -----------------------------------------------

// A budget too small for two entries evicts the least-recently-acquired
// one; the entry just served always survives (one working set fits), and
// the re-created entry regenerates bit-identical sets because streams
// derive from the cache key, never from acquisition history.
TEST(SamplerCacheTest, ByteBudgetEvictsLruAndRegeneratesIdentically) {
  const DirectedGraph graph = TestGraph();
  const SamplerCacheKey ic = SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade);
  const SamplerCacheKey lt = SamplerCacheKey::Rr(DiffusionModel::kLinearThreshold);

  SamplerCache unlimited(graph);
  const std::string ic_expected =
      Fingerprint(unlimited.Acquire(ic, 120, nullptr, nullptr, nullptr), 120);
  const std::string lt_expected =
      Fingerprint(unlimited.Acquire(lt, 120, nullptr, nullptr, nullptr), 120);
  EXPECT_EQ(unlimited.Stats().evictions, 0u);

  SamplerCache cache(graph, nullptr, /*byte_budget=*/1);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(Fingerprint(cache.Acquire(ic, 120, nullptr, nullptr, nullptr), 120),
              ic_expected);
    EXPECT_EQ(Fingerprint(cache.Acquire(lt, 120, nullptr, nullptr, nullptr), 120),
              lt_expected);
  }
  const SamplerCacheStats stats = cache.Stats();
  // Every Acquire after the first evicted the other entry, so every
  // Acquire was a fresh fill — never an extension or hit.
  EXPECT_EQ(stats.evictions, 5u);
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.hits, 0u);
  // At most the just-served entry remains resident.
  EXPECT_LE(cache.TotalBytes(), unlimited.TotalBytes());
}

// A budget large enough for the working set never evicts, and a view
// handed out before an eviction stays readable afterwards (chunk pins are
// independent of the cache map).
TEST(SamplerCacheTest, BudgetRespectsWorkingSetAndLiveViewsSurviveEviction) {
  const DirectedGraph graph = TestGraph();
  const SamplerCacheKey ic = SamplerCacheKey::Rr(DiffusionModel::kIndependentCascade);
  const SamplerCacheKey lt = SamplerCacheKey::Rr(DiffusionModel::kLinearThreshold);

  SamplerCache roomy(graph, nullptr, /*byte_budget=*/1u << 30);
  roomy.Acquire(ic, 80, nullptr, nullptr, nullptr);
  roomy.Acquire(lt, 80, nullptr, nullptr, nullptr);
  roomy.Acquire(ic, 80, nullptr, nullptr, nullptr);
  EXPECT_EQ(roomy.Stats().evictions, 0u);
  EXPECT_EQ(roomy.Stats().hits, 1u);

  SamplerCache tight(graph, nullptr, /*byte_budget=*/1);
  const CollectionView held = tight.Acquire(ic, 80, nullptr, nullptr, nullptr);
  const std::string expected = Fingerprint(held, 80);
  tight.Acquire(lt, 80, nullptr, nullptr, nullptr);  // evicts the ic entry
  EXPECT_GE(tight.Stats().evictions, 1u);
  ASSERT_EQ(held.NumSets(), 80u);
  EXPECT_EQ(Fingerprint(held, 80), expected);
}

// --- Round-1 selection memo -------------------------------------------------

// One round-1 selection on `cache`: Trim's memoized path at batch `batch`
// (η = kMemoEta), or AdaptIM when `batch` is 0. Each AdaptIM call builds its
// own selector, as the engine does per request. Trim's round is served by
// CertifyOnCache directly, as Trim::SelectBatch does once the one-hop
// certificate declines: at η = 30 that certificate answers b = 8 from
// min(b, η) alone, so a Trim selector would never reach the memo.
constexpr NodeId kMemoEta = 30;

SelectionResult SelectRoundOne(const DirectedGraph& graph, SamplerCache& cache,
                               NodeId batch, double epsilon = 0.5, ThreadPool* pool = nullptr,
                               const CancelScope* cancel = nullptr,
                               RequestProfile* profile = nullptr) {
  const BitVector active(graph.NumNodes());
  std::vector<NodeId> inactive(graph.NumNodes());
  std::iota(inactive.begin(), inactive.end(), NodeId{0});
  ResidualView view;
  view.active = &active;
  view.inactive_nodes = &inactive;
  view.shortfall = kMemoEta;
  Rng rng(77);
  if (batch == 0) {
    AdaptIm adaptim(graph, DiffusionModel::kIndependentCascade,
                    AdaptImOptions{epsilon, pool, cancel, profile, &cache});
    return adaptim.SelectBatch(view, rng);
  }
  return CertifyOnCache(
      cache, SamplerCacheKey::Mrr(DiffusionModel::kLinearThreshold, kMemoEta),
      ComputeTrimSchedule(graph.NumNodes(), kMemoEta, batch, epsilon), inactive,
      static_cast<double>(kMemoEta), pool, cancel, profile);
}

void ExpectSameSelection(const SelectionResult& got, const SelectionResult& want) {
  EXPECT_EQ(got.seeds, want.seeds);
  EXPECT_EQ(got.estimated_marginal_gain, want.estimated_marginal_gain);
  EXPECT_EQ(got.num_samples, want.num_samples);
  EXPECT_EQ(got.iterations, want.iterations);
}

// A memo hit returns exactly what a fresh cache computes — for TRIM at
// b = 1 and b = 8 and for AdaptIM, with and without a pool — and costs no
// coverage, certify or sampling work.
TEST(SelectionMemoTest, HitEqualsFreshResultAtEveryPoolSize) {
  const DirectedGraph graph = TestGraph();
  ThreadPool four(4);
  for (NodeId batch : {1u, 8u, 0u}) {
    SamplerCache reference_cache(graph);
    const SelectionResult fresh = SelectRoundOne(graph, reference_cache, batch);
    ASSERT_FALSE(fresh.seeds.empty());
    EXPECT_TRUE(fresh.answer == RoundAnswer::kCertified ||
                fresh.answer == RoundAnswer::kFellBack);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
      SCOPED_TRACE(testing::Message() << "batch=" << batch << " pool=" << (pool != nullptr));
      SamplerCache cache(graph);
      ExpectSameSelection(SelectRoundOne(graph, cache, batch, 0.5, pool), fresh);
      EXPECT_EQ(cache.Stats().selection_hits, 0u);
      const uint64_t hits_before = cache.Stats().hits;

      RequestProfile profile;
      const SelectionResult hit =
          SelectRoundOne(graph, cache, batch, 0.5, pool, nullptr, &profile);
      ExpectSameSelection(hit, fresh);
      EXPECT_EQ(hit.answer, RoundAnswer::kMemoHit);
      const SamplerCacheStats stats = cache.Stats();
      EXPECT_EQ(stats.selection_hits, 1u);
      EXPECT_EQ(stats.hits, hits_before + 1);
      EXPECT_EQ(profile.coverage_seconds, 0.0);
      EXPECT_EQ(profile.certify_seconds, 0.0);
      EXPECT_EQ(profile.sets_extended, 0u);
      EXPECT_EQ(profile.sets_reused, fresh.num_samples);
    }
  }
}

// ASTI-8 and ASTI-16 at one η share one mRR entry, and ε = 0.3 vs 0.5
// changes δ and ε̂ on it: each memo key serves only its own pick.
TEST(SelectionMemoTest, KeysOnOneEntryDoNotCollide) {
  const DirectedGraph graph = TestGraph();
  const std::pair<NodeId, double> configs[] = {{8, 0.5}, {16, 0.5}, {8, 0.3}, {16, 0.3}};
  std::vector<SelectionResult> fresh;
  for (const auto& [batch, epsilon] : configs) {
    SamplerCache own(graph);
    fresh.push_back(SelectRoundOne(graph, own, batch, epsilon));
  }
  SamplerCache shared(graph);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < std::size(configs); ++i) {
      SCOPED_TRACE(testing::Message() << "pass=" << pass << " config=" << i);
      ExpectSameSelection(SelectRoundOne(graph, shared, configs[i].first, configs[i].second),
                          fresh[i]);
    }
    EXPECT_EQ(shared.Stats().selection_hits, pass == 0 ? 0u : std::size(configs));
  }
  EXPECT_EQ(shared.ExportSealed().size(), 1u);  // one entry served all four
}

// A fired scope yields no seeds and stores nothing: the next uncancelled
// call computes the pick afresh.
TEST(SelectionMemoTest, CancelledSelectionIsNotStored) {
  const DirectedGraph graph = TestGraph();
  SamplerCache reference_cache(graph);
  const SelectionResult fresh = SelectRoundOne(graph, reference_cache, 8);

  SamplerCache cache(graph);
  CancelToken token;
  token.Cancel();
  const CancelScope fired(&token, CancelScope::kNoDeadline);
  EXPECT_TRUE(SelectRoundOne(graph, cache, 8, 0.5, nullptr, &fired).seeds.empty());
  EXPECT_EQ(cache.Stats().selection_hits, 0u);
  ExpectSameSelection(SelectRoundOne(graph, cache, 8), fresh);
  EXPECT_EQ(cache.Stats().selection_hits, 0u);
}

// An entry evicted under the byte budget takes its memo with it: the next
// call recomputes on the re-created entry and returns the same pick.
TEST(SelectionMemoTest, EvictionDropsTheMemo) {
  const DirectedGraph graph = TestGraph();
  SamplerCache cache(graph, nullptr, /*byte_budget=*/1);
  const SelectionResult first = SelectRoundOne(graph, cache, 8);
  SelectRoundOne(graph, cache, 0);  // AdaptIM's RR entry evicts the mRR one
  EXPECT_GE(cache.Stats().evictions, 1u);
  ExpectSameSelection(SelectRoundOne(graph, cache, 8), first);
  EXPECT_EQ(cache.Stats().selection_hits, 0u);
}

// Eight threads selecting one key on one cache — racing misses, stores and
// hits — all get the fresh pick (exercised under TSAN in CI).
TEST(SelectionMemoTest, ConcurrentSelectionsAgree) {
  const DirectedGraph graph = TestGraph();
  SamplerCache reference_cache(graph);
  const SelectionResult fresh = SelectRoundOne(graph, reference_cache, 8);

  SamplerCache cache(graph);
  std::vector<SelectionResult> results(16);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&graph, &cache, &results, t] {
      results[2 * t] = SelectRoundOne(graph, cache, 8);
      results[2 * t + 1] = SelectRoundOne(graph, cache, 8);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const SelectionResult& result : results) ExpectSameSelection(result, fresh);
  // Each thread's second call follows its own completed store.
  EXPECT_GE(cache.Stats().selection_hits, 8u);
}

}  // namespace
}  // namespace asti
