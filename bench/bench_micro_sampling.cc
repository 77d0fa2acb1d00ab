// Micro-benchmarks (google-benchmark) for the sampling substrate:
// RR vs mRR generation under IC and LT, coverage argmax, greedy coverage,
// forward simulation, and realization sampling.
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

#include <numeric>

#include "coverage/lazy_greedy.h"
#include "coverage/max_coverage.h"
#include "diffusion/forward_sim.h"
#include "graph/datasets.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/span.h"
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

void BM_CoverageArgMax(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(graph.NumNodes());
  const auto candidates = AllNodes(graph.NumNodes());
  Rng rng(3);
  for (int i = 0; i < 4096; ++i) sampler.Generate(candidates, nullptr, collection, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(collection.ArgMaxCoverage());
  }
}
BENCHMARK(BM_CoverageArgMax);

void BM_GreedyMaxCoverage(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(graph.NumNodes());
  const auto candidates = AllNodes(graph.NumNodes());
  Rng rng(4);
  for (int i = 0; i < 4096; ++i) sampler.Generate(candidates, nullptr, collection, rng);
  const NodeId budget = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMaxCoverage(collection, budget));
  }
}
BENCHMARK(BM_GreedyMaxCoverage)->Arg(1)->Arg(8)->Arg(64);

void BM_LazyGreedyMaxCoverage(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  RrSampler sampler(graph, DiffusionModel::kIndependentCascade);
  RrCollection collection(graph.NumNodes());
  const auto candidates = AllNodes(graph.NumNodes());
  Rng rng(4);  // same stream as BM_GreedyMaxCoverage for a fair instance
  for (int i = 0; i < 4096; ++i) sampler.Generate(candidates, nullptr, collection, rng);
  const NodeId budget = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LazyGreedyMaxCoverage(collection, budget));
  }
}
BENCHMARK(BM_LazyGreedyMaxCoverage)->Arg(1)->Arg(8)->Arg(64);

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
