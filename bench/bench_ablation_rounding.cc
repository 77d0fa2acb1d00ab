// Ablation — the randomized rounding of the mRR root count (§3.3 Remark).
//
// Part 1 (closed form): worst-case estimator bias ratio f(x) over all
// spreads x for randomized / floor / ceil root-count rules. The paper's
// Remark: randomized rounding keeps f ∈ [1 − 1/e, 1]; fixed ⌊n/η⌋ only
// guarantees [1 − 1/√e, 1]; fixed ⌊n/η⌋+1 inflates up to 2.
//
// Part 2 (end to end): ASTI seed counts with each rule — the looser
// estimators survive in practice but the randomized rule needs no
// correction factor and keeps the formal guarantee.

#include <algorithm>
#include <iostream>
#include <memory>

#include "benchutil/cli.h"
#include "benchutil/table.h"
#include "core/asti.h"
#include "core/trim.h"
#include "diffusion/world.h"
#include "graph/datasets.h"
#include "parallel/thread_pool.h"
#include "stats/truncation.h"

int main(int argc, char** argv) {
  using namespace asti;
  const CommandLine cli(argc, argv, {"scale", "realizations", "seed", "threads"});
  const double scale = EnvDouble("ASM_BENCH_SCALE", cli.GetDouble("scale", 0.5));
  const size_t realizations =
      EnvSize("ASM_BENCH_REALIZATIONS", static_cast<size_t>(cli.GetInt("realizations", 3)));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  const size_t num_threads = NumThreadsOverride(cli);
  std::unique_ptr<ThreadPool> pool;  // 1 = no pool
  if (num_threads != 1) pool = std::make_unique<ThreadPool>(num_threads);

  std::cout << "Ablation: randomized rounding of the mRR root count (the paper's "
               "scheme, E[k] = n/eta exactly, against fixed floor and ceil k)\n";
  std::cout << "\nPart 1: worst-case bias ratio f(x) = E[Gamma~]/Gamma over x\n";
  TextTable bias({"n", "eta", "randomized min..max", "floor min..max", "ceil min..max"});
  for (const auto& [n, eta] : std::vector<std::pair<uint64_t, uint64_t>>{
           {100, 7}, {1000, 30}, {10000, 300}, {10000, 9000}}) {
    auto range_for = [&](RootRounding rounding) {
      double lo = 1e18;
      double hi = 0.0;
      for (uint64_t x = 1; x <= n; x = std::max(x + 1, x * 11 / 10)) {
        const double f = EstimatorBiasRatio(x, n, eta, rounding);
        lo = std::min(lo, f);
        hi = std::max(hi, f);
      }
      return FormatDouble(lo, 3) + ".." + FormatDouble(hi, 3);
    };
    bias.AddRow({std::to_string(n), std::to_string(eta),
                 range_for(RootRounding::kRandomized), range_for(RootRounding::kFloor),
                 range_for(RootRounding::kCeil)});
  }
  bias.Print(std::cout);
  std::cout << "Expected: randomized stays within [0.632, 1]; floor dips "
               "below 0.632 (toward 0.393); ceil exceeds 1 (toward 2).\n";

  std::cout << "\nPart 2: end-to-end ASTI seed counts per rounding rule\n";
  auto graph = MakeSurrogateDataset(DatasetId::kNetHept, scale, seed);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return 1;
  }
  const NodeId eta = std::max<NodeId>(1, graph->NumNodes() / 10);
  TextTable seeds({"rounding", "mean seeds", "mean time (s)", "reached"});
  for (const auto& [name, rounding] :
       std::vector<std::pair<const char*, RootRounding>>{
           {"randomized", RootRounding::kRandomized},
           {"floor", RootRounding::kFloor},
           {"ceil", RootRounding::kCeil}}) {
    std::vector<AdaptiveRunTrace> traces;
    for (size_t run = 0; run < realizations; ++run) {
      Rng world_rng(seed * 31 + run);
      AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, eta, world_rng);
      TrimOptions options;
      options.rounding = rounding;
      options.pool = pool.get();
      Trim trim(*graph, DiffusionModel::kIndependentCascade, options);
      Rng rng(seed * 77 + run);
      traces.push_back(RunAdaptivePolicy(world, trim, rng));
    }
    const RunAggregate aggregate = Aggregate(traces);
    seeds.AddRow({name, FormatDouble(aggregate.mean_seeds, 2),
                  FormatDouble(aggregate.mean_seconds, 3),
                  std::to_string(aggregate.runs_reaching_target) + "/" +
                      std::to_string(aggregate.runs)});
  }
  seeds.Print(std::cout);
  std::cout << "Expected: all rules reach eta (adaptivity absorbs estimator "
               "bias); seed counts are comparable — the randomized rule's "
               "value is the provable [1-1/e, 1] bracket, not raw seed "
               "savings.\n";
  return 0;
}
