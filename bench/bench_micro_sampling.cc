// Micro-benchmarks (google-benchmark) for the sampling substrate:
// RR vs mRR generation under IC and LT, coverage argmax, CELF greedy
// coverage, forward simulation, and realization sampling.
//
// Most rows run nethept at scale 0.3, whose graph stays in cache. The
// *Youtube rows and BM_InvertedIndexBuild run the youtube surrogate at
// scale 1.0 (n = 56,000, m = 298,342), servebench ic-cold's graph, whose
// reverse CSR does not: cache misses show there and only there.
//
// Not a paper figure — these isolate the primitives whose costs compose
// into Figures 5/7 (e.g. LT reverse traversals are cheaper than IC ones,
// mRR-set cost scales with OPT_i/η_i · m_i).
//
// The BM_*Profiled / BM_Obs* group pins the observability overhead
// contract: with a null profile sampling must be
// indistinguishable from the bare loop (< 2%, i.e. noise), the absolute
// cost of a live span (two steady_clock reads) must stay tens of ns so
// production's per-batch spans amortize it below 2%, and the metric
// primitives themselves must be nanosecond-scale.

#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>

#include "coverage/inverted_index.h"
#include "coverage/lazy_greedy.h"
#include "coverage/max_coverage.h"
#include "diffusion/forward_sim.h"
#include "graph/datasets.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"
#include "sampling/mrr_set.h"
#include "sampling/root_size.h"
#include "sampling/rr_set.h"
#include "sampling/shared_collection.h"

namespace asti {
namespace {

const DirectedGraph& BenchGraph() {
  static const DirectedGraph graph = [] {
    auto result = MakeSurrogateDataset(DatasetId::kNetHept, 0.3, 7);
    ASM_CHECK(result.ok());
    return std::move(result).value();
  }();
  return graph;
}

const DirectedGraph& YoutubeGraph() {
  static const DirectedGraph graph = [] {
    auto result = MakeSurrogateDataset(DatasetId::kYoutube, 1.0, 7);
    ASM_CHECK(result.ok());
    return std::move(result).value();
  }();
  return graph;
}

std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

void BM_RrSetGeneration(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  const DiffusionModel model = static_cast<DiffusionModel>(state.range(0));
  RrSampler sampler(graph, model);
  RrCollection collection(graph.NumNodes());
  const auto candidates = AllNodes(graph.NumNodes());
  Rng rng(1);
  for (auto _ : state) {
    sampler.Generate(candidates, nullptr, collection, rng);
    if (collection.NumSets() > 100000) {
      state.PauseTiming();
      collection.Clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RrSetGeneration)
    ->Arg(static_cast<int>(DiffusionModel::kIndependentCascade))
    ->Arg(static_cast<int>(DiffusionModel::kLinearThreshold));

// RR generation with the request-profile instrumentation attached, at a
// deliberately finer grain than production (a span per Generate call
// instead of per batch). Arg 0 runs with a null profile (spans are
// no-ops, no clock reads — a selector built without one) and must match
// BM_RrSetGeneration within noise (< 2%). Arg 1 runs a live profile and
// exposes the absolute span cost — two steady_clock reads + accumulate,
// tens of ns per call — which production pays once per *batch* of
// hundreds-to-thousands of sets, keeping profiled sampling within 2% of
// bare end to end.
void BM_RrSetGenerationProfiled(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(graph.NumNodes());
  const auto candidates = AllNodes(graph.NumNodes());
  Rng rng(1);  // same stream as BM_RrSetGeneration: identical work
  RequestProfile storage;
  RequestProfile* profile = state.range(0) == 0 ? nullptr : &storage;
  for (auto _ : state) {
    {
      PhaseSpan span(profile, RequestPhase::kSampling);
      sampler.Generate(candidates, nullptr, collection, rng);
    }
    NoteSampling(profile, 1, collection.MemoryBytes());
    if (collection.NumSets() > 100000) {
      state.PauseTiming();
      collection.Clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RrSetGenerationProfiled)->Arg(0)->Arg(1);

void BM_MrrSetGeneration(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  const DiffusionModel model = static_cast<DiffusionModel>(state.range(0));
  const NodeId eta = static_cast<NodeId>(graph.NumNodes() / state.range(1));
  MrrSampler sampler(graph, model);
  RootSizeSampler root_size(graph.NumNodes(), eta);
  RrCollection collection(graph.NumNodes());
  const auto candidates = AllNodes(graph.NumNodes());
  Rng rng(2);
  for (auto _ : state) {
    sampler.Generate(candidates, nullptr, root_size.Sample(rng), collection, rng);
    if (collection.NumSets() > 20000) {
      state.PauseTiming();
      collection.Clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MrrSetGeneration)
    ->Args({static_cast<int>(DiffusionModel::kIndependentCascade), 100})
    ->Args({static_cast<int>(DiffusionModel::kIndependentCascade), 20})
    ->Args({static_cast<int>(DiffusionModel::kLinearThreshold), 100})
    ->Args({static_cast<int>(DiffusionModel::kLinearThreshold), 20});

// mRR sets at ic-cold's shape: youtube at scale 1.0, η = 3 % of n (ic-cold
// draws targets over 1–5 %), about 200 visited nodes per IC set. Items are
// visited nodes, and `per_node` reads CPU time per visited node. With
// threads:4 each thread runs its own sampler over the shared graph, as
// ic-cold's pool of 4 does.
void BM_MrrSetGenerationYoutube(benchmark::State& state, DiffusionModel model) {
  const DirectedGraph& graph = YoutubeGraph();
  const NodeId n = graph.NumNodes();
  MrrSampler sampler(graph, model);
  const RootSizeSampler root_size(n, n * 3 / 100);
  RrCollection collection(n);
  const auto candidates = AllNodes(n);
  Rng rng(21 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    sampler.Generate(candidates, nullptr, root_size.Sample(rng), collection, rng);
    if (collection.NumSets() > 2000) {
      state.PauseTiming();
      collection.Clear();
      state.ResumeTiming();
    }
  }
  const auto nodes = static_cast<double>(sampler.cost().nodes_visited);
  state.SetItemsProcessed(static_cast<int64_t>(nodes));
  state.counters["per_node"] =
      benchmark::Counter(nodes, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_MrrSetGenerationYoutube, IC, DiffusionModel::kIndependentCascade)
    ->Threads(1)
    ->Threads(4);
BENCHMARK_CAPTURE(BM_MrrSetGenerationYoutube, LT, DiffusionModel::kLinearThreshold)
    ->Threads(1)
    ->Threads(4);

void BM_CoverageArgMax(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(graph.NumNodes());
  const auto candidates = AllNodes(graph.NumNodes());
  Rng rng(3);
  for (int i = 0; i < 4096; ++i) sampler.Generate(candidates, nullptr, collection, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ArgMaxCoverage(collection, nullptr));
  }
}
BENCHMARK(BM_CoverageArgMax);

void BM_LazyGreedyMaxCoverage(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(graph.NumNodes());
  const auto candidates = AllNodes(graph.NumNodes());
  Rng rng(4);
  for (int i = 0; i < 4096; ++i) sampler.Generate(candidates, nullptr, collection, rng);
  const NodeId budget = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LazyGreedyMaxCoverage(collection, budget));
  }
}
BENCHMARK(BM_LazyGreedyMaxCoverage)->Arg(1)->Arg(8)->Arg(64);

// CELF on youtube at scale 1.0, index build included. Arg 0: budget n over
// 8,192 IC RR sets, the shape of Bisection's one pass (8,192 is
// BisectionOptions::samples), which ends in the zero-gain fill. Args 4 and
// 16: b = 4 and 16 over 1,252 IC mRR sets at η = 3 % of n, the size of
// ic-cold's first ASTI-4 rung (the instance of BM_InvertedIndexBuild/1252).
void BM_LazyGreedyYoutube(benchmark::State& state) {
  const DirectedGraph& graph = YoutubeGraph();
  const NodeId n = graph.NumNodes();
  const auto candidates = AllNodes(n);
  RrCollection collection(n);
  if (state.range(0) == 0) {
    RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
    Rng rng(9);
    for (int i = 0; i < 8192; ++i) sampler.Generate(candidates, nullptr, collection, rng);
  } else {
    MrrSampler sampler(graph, DiffusionModel::kIndependentCascade);
    const RootSizeSampler root_size(n, n * 3 / 100);
    Rng rng(8);
    for (int i = 0; i < 1252; ++i) {
      sampler.Generate(candidates, nullptr, root_size.Sample(rng), collection, rng);
    }
  }
  const NodeId budget = state.range(0) == 0 ? n : static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LazyGreedyMaxCoverage(collection, budget));
  }
}
BENCHMARK(BM_LazyGreedyYoutube)->Arg(0)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

Realization SampleWorld(const DirectedGraph& graph, DiffusionModel model, Rng& rng) {
  return model == DiffusionModel::kIndependentCascade ? Realization::SampleIc(graph, rng)
                                                      : Realization::SampleLt(graph, rng);
}

// One hidden world (arg = model: 0 IC, 1 LT), live-edge CSR build included.
void BM_RealizationSampling(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  const DiffusionModel model = static_cast<DiffusionModel>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleWorld(graph, model, rng));
  }
}
BENCHMARK(BM_RealizationSampling)->Arg(0)->Arg(1);

// One hidden world on youtube at scale 1.0 (arg = model), as ic-cold and
// lt-churn sample one per request.
void BM_RealizationSamplingYoutube(benchmark::State& state) {
  const DirectedGraph& graph = YoutubeGraph();
  const DiffusionModel model = static_cast<DiffusionModel>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleWorld(graph, model, rng));
  }
}
BENCHMARK(BM_RealizationSamplingYoutube)->Arg(0)->Arg(1);

// The node → set index over range(0) IC mRR sets on youtube at scale 1.0
// (η = 3 % of n; ic-cold's ASTI-4 rungs hold 1,252, 2,504 and 5,008 sets;
// 3,756 sits between the last two),
// without a pool (range(1) = 0) or with a pool of range(1) threads.
void BM_InvertedIndexBuild(benchmark::State& state) {
  const DirectedGraph& graph = YoutubeGraph();
  const NodeId n = graph.NumNodes();
  MrrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  const RootSizeSampler root_size(n, n * 3 / 100);
  RrCollection collection(n);
  const auto candidates = AllNodes(n);
  Rng rng(8);
  for (int64_t i = 0; i < state.range(0); ++i) {
    sampler.Generate(candidates, nullptr, root_size.Sample(rng), collection, rng);
  }
  std::unique_ptr<ThreadPool> pool;
  if (state.range(1) > 0) pool = std::make_unique<ThreadPool>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildInvertedIndex(collection, pool.get()));
  }
  state.counters["mean_coverage"] =
      static_cast<double>(collection.TotalEntries()) / static_cast<double>(n);
}
BENCHMARK(BM_InvertedIndexBuild)
    ->Args({1252, 0})
    ->Args({1252, 4})
    ->Args({2504, 0})
    ->Args({2504, 4})
    ->Args({3756, 0})
    ->Args({3756, 4})
    ->Args({5008, 0})
    ->Args({5008, 4})
    ->Unit(benchmark::kMicrosecond);

// Forward BFS from five seeds over one fixed world (arg = model); reads
// only the activated nodes' live out-edges.
void BM_ForwardPropagation(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  const DiffusionModel model = static_cast<DiffusionModel>(state.range(0));
  Rng rng(6);
  const Realization realization = SampleWorld(graph, model, rng);
  ForwardSimulator simulator(graph);
  const std::vector<NodeId> seeds = {0, 1, 2, 3, 4};
  size_t activated = 0;
  for (auto _ : state) {
    activated = simulator.Propagate(realization, seeds).size();
    benchmark::DoNotOptimize(activated);
  }
  state.counters["activated"] = static_cast<double>(activated);
}
BENCHMARK(BM_ForwardPropagation)->Arg(0)->Arg(1);

// --- Shared-collection substrate ----------------------------------------

// Growing a SharedRrCollection along a doubling ladder (batch, 2·batch,
// 4·batch, 8·batch): measures the chunk-publish + coverage-checkpoint
// overhead the sampler cache adds on top of bare generation into an owned
// collection. Per-set streams are index-derived, as in the cache.
void BM_SharedCollectionExtend(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  const auto candidates = AllNodes(graph.NumNodes());
  const Rng base(42);
  const size_t batch = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SharedRrCollection shared(graph.NumNodes());
    state.ResumeTiming();
    for (size_t target = batch; target <= batch * 8; target *= 2) {
      shared.ExtendTo(target, [&](size_t first, size_t count, RrCollection& staging) {
        for (size_t i = 0; i < count; ++i) {
          Rng rng = base.Split(first + i);
          sampler.Generate(candidates, nullptr, staging, rng);
        }
      });
    }
    benchmark::DoNotOptimize(shared.SealedSets());
  }
  state.SetItemsProcessed(state.iterations() * batch * 8);
}
BENCHMARK(BM_SharedCollectionExtend)->Arg(64)->Arg(512);

const RrCollection& OwnedBenchCollection() {
  static const RrCollection collection = [] {
    const DirectedGraph& graph = BenchGraph();
    RrCollection c(graph.NumNodes());
    RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
    const auto candidates = AllNodes(graph.NumNodes());
    const Rng base(9);
    for (size_t i = 0; i < 4096; ++i) {
      Rng rng = base.Split(i);
      sampler.Generate(candidates, nullptr, c, rng);
    }
    return c;
  }();
  return collection;
}

const SharedRrCollection& SharedBenchCollection() {
  static SharedRrCollection* shared = [] {
    const DirectedGraph& graph = BenchGraph();
    auto* s = new SharedRrCollection(graph.NumNodes());
    RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
    const auto candidates = AllNodes(graph.NumNodes());
    const Rng base(9);  // same streams as OwnedBenchCollection: same sets
    s->ExtendTo(4096, [&](size_t first, size_t count, RrCollection& staging) {
      for (size_t i = 0; i < count; ++i) {
        Rng rng = base.Split(first + i);
        sampler.Generate(candidates, nullptr, staging, rng);
      }
    });
    return s;
  }();
  return *shared;
}

// Scanning every set's node span through the three read surfaces that the
// coverage solvers now see. Arg 0 reads the owned RrCollection directly;
// arg 1 reads it through a borrowed CollectionView; arg 2 reads the same
// sets through a shared-prefix view (single chunk). The view arms expose
// the absolute cost of view dispatch — one predictable branch plus a part
// indirection in CollectionView::Set, sub-ns per set even on this bare
// size() scan — and must time identically to each other (borrow vs shared
// prefix is free). Real solver loops touch every node of each set, so the
// dispatch amortizes below noise (< 2%) end to end; the engine-level pin
// for that is MetricsOnAndOffProduceBitIdenticalResults plus the
// throughput bench's warm-speedup, which would regress if views taxed the
// coverage path.
void BM_CollectionViewRead(benchmark::State& state) {
  const RrCollection& owned = OwnedBenchCollection();
  const int mode = static_cast<int>(state.range(0));
  size_t total = 0;
  if (mode == 0) {
    for (auto _ : state) {
      for (size_t i = 0; i < owned.NumSets(); ++i) total += owned.Set(i).size();
      benchmark::DoNotOptimize(total);
    }
  } else {
    const CollectionView view = mode == 1
                                    ? CollectionView(owned)
                                    : SharedBenchCollection().Prefix(owned.NumSets());
    for (auto _ : state) {
      for (size_t i = 0; i < view.NumSets(); ++i) total += view.Set(i).size();
      benchmark::DoNotOptimize(total);
    }
  }
  state.SetItemsProcessed(state.iterations() * owned.NumSets());
}
BENCHMARK(BM_CollectionViewRead)->Arg(0)->Arg(1)->Arg(2);

// --- Observability primitives -------------------------------------------

// One sharded-counter increment; with --benchmark_threads > 1 (or the
// ->Threads levels below) every thread lands on its own cache line.
void BM_ObsShardedCounterAdd(benchmark::State& state) {
  static ShardedCounter counter;
  for (auto _ : state) {
    counter.Add(1);
  }
  if (state.thread_index() == 0) benchmark::DoNotOptimize(counter.Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsShardedCounterAdd)->Threads(1)->Threads(4);

// One histogram record: a bit_width bucket index plus two relaxed adds.
// The varying value sweeps bucket indices so the branch predictor cannot
// memorize one bucket.
void BM_ObsHistogramRecord(benchmark::State& state) {
  static LogHistogram histogram;
  uint64_t value = 1;
  for (auto _ : state) {
    histogram.Record(value);
    value = value * 6364136223846793005ull + 1442695040888963407ull;
    value >>= 40;  // keep values in the realistic ns..ms bucket range
  }
  benchmark::DoNotOptimize(histogram.Snapshot().Count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

}  // namespace
}  // namespace asti

BENCHMARK_MAIN();
