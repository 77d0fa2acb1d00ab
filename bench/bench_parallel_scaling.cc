// Parallel RR-set sampling + greedy coverage engines: throughput vs.
// thread count.
//
// Not a paper figure — measures the src/parallel/ + src/coverage/ engines
// on a generator graph. Phase 1: single-root RR batches and mRR batches
// (the TRIM workload) at each requested thread count, reporting sets/s and
// speedup over one thread. Phase 2: LazyGreedyMaxCoverage seed selection
// over one shared collection (the TRIM-B per-round subproblem), reporting
// picks/s. Both phases run t = 1 without a pool, on the calling thread.
// Checksums are printed per row; identical checksums across thread counts
// demonstrate both determinism contracts (per-set RNG streams +
// index-ordered merge for sampling; batched stale-drain with exact
// (gain, lowest-id) tie-breaking for coverage — neither result depends on
// the pool size, or on whether there is a pool).
//
//   --threads 1,2,4,8     thread counts to sweep (ASM_BENCH_THREADS adds one)
//   --sets 20000          RR-sets per timed sampling batch
//   --coverage-sets N     sets in the coverage instance (default 5 × --sets)
//   --budget N            coverage picks (default η = n/50)
//   --scale 1.0           graph size multiplier
//   --model ic|lt

#include <cstdint>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "benchutil/cli.h"
#include "benchutil/table.h"
#include "coverage/lazy_greedy.h"
#include "coverage/max_coverage.h"
#include "graph/generators.h"
#include "parallel/parallel_sampler.h"
#include "parallel/thread_pool.h"
#include "sampling/root_size.h"
#include "util/check.h"
#include "util/timer.h"

namespace asti {
namespace {

// Order-independent digest of the coverage vector: equal across runs iff
// the stored sets are identical (up to node multiset, which suffices here
// because the engine also fixes the order).
uint64_t CoverageChecksum(const RrCollection& collection) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (NodeId v = 0; v < collection.num_nodes(); ++v) {
    uint64_t word = (static_cast<uint64_t>(v) << 32) | collection.Coverage(v);
    word *= 0x100000001b3ULL;
    digest ^= word + (digest << 6) + (digest >> 2);
  }
  return digest;
}

// Order-sensitive digest of a selection: equal iff the pick sequence and
// every per-pick marginal agree — the bit-identical contract of the
// parallel coverage path.
uint64_t SelectionChecksum(const MaxCoverageResult& result) {
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < result.selected.size(); ++i) {
    uint64_t word = (static_cast<uint64_t>(result.selected[i]) << 32) |
                    result.marginal_coverage[i];
    word *= 0x100000001b3ULL;
    digest ^= word + (digest << 6) + (digest >> 2);
  }
  return digest ^ result.covered_sets;
}

}  // namespace
}  // namespace asti

int main(int argc, char** argv) {
  using namespace asti;
  const CommandLine cli(argc, argv,
                        {"scale", "sets", "seed", "model", "threads", "coverage-sets", "budget"});
  const double scale = EnvDouble("ASM_BENCH_SCALE", cli.GetDouble("scale", 1.0));
  const size_t sets = EnvSize("ASM_BENCH_SETS",
                              static_cast<size_t>(cli.GetInt("sets", 20000)));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  const DiffusionModel model = cli.GetString("model", "ic") == "lt"
                                   ? DiffusionModel::kLinearThreshold
                                   : DiffusionModel::kIndependentCascade;
  std::vector<size_t> threads =
      ParseSizeList(cli.GetString("threads", "1,2,4,8"), "--threads");
  const size_t env_threads = EnvSize("ASM_BENCH_THREADS", 0);
  if (env_threads != 0) threads.push_back(env_threads);

  // Power-law generator graph, the regime of the paper's datasets.
  const NodeId n = static_cast<NodeId>(20000 * scale);
  const size_t m = static_cast<size_t>(120000 * scale);
  Rng graph_rng(seed);
  auto graph = BuildWeightedGraph(MakeChungLu(n, m, 2.1, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASM_CHECK(graph.ok()) << graph.status().ToString();
  std::vector<NodeId> candidates(graph->NumNodes());
  std::iota(candidates.begin(), candidates.end(), 0);
  const NodeId eta = std::max<NodeId>(1, graph->NumNodes() / 50);
  const RootSizeSampler root_size(graph->NumNodes(), eta);

  std::cout << "Parallel RR sampling scaling on Chung-Lu graph (n=" << graph->NumNodes()
            << ", m=" << graph->NumEdges() << ", model=" << DiffusionModelName(model)
            << ", sets/batch=" << sets << ", hardware threads="
            << std::thread::hardware_concurrency() << ")\n\n";

  TextTable table({"threads", "rr sets/s", "rr speedup", "mrr sets/s", "mrr speedup",
                   "checksum"});
  double rr_base = 0.0;
  double mrr_base = 0.0;
  uint64_t reference_checksum = 0;
  bool deterministic = true;
  for (size_t t : threads) {
    std::unique_ptr<ThreadPool> pool;
    if (t != 1) pool = std::make_unique<ThreadPool>(t);
    ParallelRrSampler sampler(*graph, model, pool.get());
    RrCollection collection(graph->NumNodes());
    Rng rng(seed + 1);

    // Warm up worker scratch (first-touch allocation), then time.
    sampler.GenerateIndexed(candidates, nullptr, 0, sets / 10 + 1, collection, rng.Split());
    collection.Clear();
    Rng rr_rng(seed + 2);
    WallTimer rr_timer;
    sampler.GenerateIndexed(candidates, nullptr, 0, sets, collection, rr_rng.Split());
    const double rr_seconds = rr_timer.Seconds();
    const uint64_t checksum = CoverageChecksum(collection);
    if (reference_checksum == 0) reference_checksum = checksum;
    deterministic = deterministic && checksum == reference_checksum;

    collection.Clear();
    Rng mrr_rng(seed + 3);
    WallTimer mrr_timer;
    sampler.GenerateMrrIndexed(candidates, nullptr, root_size, 0, sets, collection,
                               mrr_rng.Split());
    const double mrr_seconds = mrr_timer.Seconds();

    const double rr_rate = sets / rr_seconds;
    const double mrr_rate = sets / mrr_seconds;
    if (rr_base == 0.0) rr_base = rr_rate;
    if (mrr_base == 0.0) mrr_base = mrr_rate;
    table.AddRow({std::to_string(t), FormatCount(rr_rate),
                  FormatDouble(rr_rate / rr_base) + "x", FormatCount(mrr_rate),
                  FormatDouble(mrr_rate / mrr_base) + "x",
                  std::to_string(checksum % 1000000)});
  }
  table.Print(std::cout);
  std::cout << "\nRR coverage checksum identical across thread counts: "
            << (deterministic ? "yes" : "NO — determinism violated") << "\n";

  // --- Phase 2: parallel greedy coverage (the TRIM-B selection phase) -------
  // One shared collection (deterministic regardless of how it was sampled),
  // then LazyGreedyMaxCoverage at each thread count. t = 1 runs without a
  // pool, so speedups are against the sequential CELF.
  const size_t coverage_sets = EnvSize(
      "ASM_BENCH_COVERAGE_SETS",
      static_cast<size_t>(cli.GetInt("coverage-sets", static_cast<int>(sets * 5))));
  const NodeId budget = static_cast<NodeId>(cli.GetInt("budget", static_cast<int>(eta)));
  RrCollection coverage_instance(graph->NumNodes());
  {
    ThreadPool pool(threads.back());
    ParallelRrSampler sampler(*graph, model, &pool);
    Rng rng(seed + 4);
    sampler.GenerateIndexed(candidates, nullptr, 0, coverage_sets, coverage_instance,
                            rng.Split());
  }
  std::cout << "\nParallel greedy coverage (LazyGreedyMaxCoverage, |R|="
            << coverage_instance.NumSets() << ", entries="
            << coverage_instance.TotalEntries() << ", budget=" << budget << ")\n\n";

  TextTable coverage_table({"threads", "picks/s", "speedup", "selection checksum"});
  double coverage_base = 0.0;
  uint64_t reference_selection = 0;
  bool coverage_deterministic = true;
  for (size_t t : threads) {
    std::unique_ptr<ThreadPool> pool;
    if (t != 1) pool = std::make_unique<ThreadPool>(t);
    // Warm-up run (index + heap allocations), then the timed run.
    LazyGreedyMaxCoverage(coverage_instance, budget, nullptr, pool.get());
    WallTimer timer;
    const MaxCoverageResult result =
        LazyGreedyMaxCoverage(coverage_instance, budget, nullptr, pool.get());
    const double seconds = timer.Seconds();
    const uint64_t checksum = SelectionChecksum(result);
    if (reference_selection == 0) reference_selection = checksum;
    coverage_deterministic = coverage_deterministic && checksum == reference_selection;
    const double rate = static_cast<double>(result.selected.size()) / seconds;
    if (coverage_base == 0.0) coverage_base = rate;
    coverage_table.AddRow({std::to_string(t), FormatCount(rate),
                           FormatDouble(rate / coverage_base) + "x",
                           std::to_string(checksum % 1000000)});
  }
  coverage_table.Print(std::cout);
  std::cout << "\nSelection checksum identical across thread counts: "
            << (coverage_deterministic ? "yes" : "NO — determinism violated") << "\n";
  return deterministic && coverage_deterministic ? 0 : 1;
}
